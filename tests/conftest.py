"""Shared test helpers: independent brute-force oracles kept deliberately
separate from the library's own code paths."""

from __future__ import annotations

import itertools
import math
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _src_slot():
    """Where this checkout's ``src`` goes on ``sys.path``: just after the
    ``PYTHONPATH`` entries, so that a package named there is the one tested,
    and ahead of site-packages, so that an installed copy is not."""
    entries = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    listed = {os.path.abspath(p) for p in entries if p}
    return max(
        (i + 1 for i, p in enumerate(sys.path) if p and os.path.abspath(p) in listed),
        default=0,
    )


if SRC not in sys.path:
    sys.path.insert(_src_slot(), SRC)


def rank_word(values):
    """The pattern realized by a value sequence (1-based ranks)."""
    ordered = sorted(values)
    return tuple(ordered.index(v) + 1 for v in values)


def naive_contains(p, sigma):
    """Plain subsequence scan over all index triples/tuples; the reference
    oracle for pattern containment."""
    k = len(sigma)
    sigma = tuple(sigma)
    for combo in itertools.combinations(p, k):
        if rank_word(combo) == sigma:
            return True
    return False


def cycle_lengths(p):
    """Cycle type computed with a local walk, independent of the library."""
    m = len(p)
    seen = [False] * (m + 1)
    lengths = []
    for start in range(1, m + 1):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            length += 1
            v = p[v - 1]
        lengths.append(length)
    return sorted(lengths)


def star_by_filter(n):
    """All 3-cycle-only permutations of [3n] by filtering the full symmetric
    group; only feasible for n <= 2 but fully independent of the generator."""
    return [
        p
        for p in itertools.permutations(range(1, 3 * n + 1))
        if cycle_lengths(p) == [3] * n
    ]


PATTERNS3 = tuple(itertools.permutations((1, 2, 3)))

#: Every non-empty set of length-3 patterns (63 of them).
PATTERN_SETS = [
    subset
    for size in range(1, len(PATTERNS3) + 1)
    for subset in itertools.combinations(PATTERNS3, size)
]


def cycle_forms(p):
    """The forms ("231" or "312") of the 3-cycles of ``p``, read off each
    cycle's smallest element a: a -> b -> c is 231 when b < c."""
    forms = set()
    for a in range(1, len(p) + 1):
        b = p[a - 1]
        c = p[b - 1]
        if a < b and a < c:
            forms.add("231" if b < c else "312")
    return forms


def mark_members(members):
    """Each member with a bit mask of the patterns it contains (bit i for
    PATTERNS3[i], found by naive_contains) and its set of cycle forms, so a
    query over many pattern sets scans each member once."""
    marked = []
    for p in members:
        contained = 0
        for i, sigma in enumerate(PATTERNS3):
            if naive_contains(p, sigma):
                contained |= 1 << i
        marked.append((p, contained, cycle_forms(p)))
    return marked


def select(marked, patterns, form):
    """The members of ``marked`` avoiding every pattern in ``patterns`` whose
    cycles all have ``form`` (any form when None), in their given order."""
    avoid = 0
    for sigma in patterns:
        avoid |= 1 << PATTERNS3.index(tuple(sigma))
    return [
        p
        for p, contained, forms in marked
        if not contained & avoid and (form is None or forms == {form})
    ]


def catalan_direct(n):
    # independent route: the closed form binom(2n,n)/(n+1)
    return math.comb(2 * n, n) // (n + 1)


def motzkin_direct(n):
    # independent route: sum over binom(n, 2k) * Catalan(k)
    return sum(math.comb(n, 2 * k) * catalan_direct(k) for k in range(n // 2 + 1))


def composition_sums(max_n, part, by_length):
    """For n = 0..max_n, the sum over all compositions (x1..xk) of n of
    by_length[k] * prod part[xi].  Each of the 2^(n-1) compositions of each
    n is visited once, as the extension of its prefix by its last part."""
    totals = [0] * (max_n + 1)

    def visit(total, k, prod):
        for x in range(1, max_n - total + 1):
            p = prod * part[x]
            totals[total + x] += by_length[k + 1] * p
            visit(total + x, k + 1, p)

    visit(0, 0, 1)
    return totals


def composition_sums_132(max_n):
    """The paper's literal composition sums for n = 0..max_n (index 0 is 0):
    the all-312 counts a[n] = sum of M[k-1] * prod C[xi], and the 132-avoider
    counts b[n] = 2 * sum of prod a[xi], over the compositions (x1..xk) of n,
    with Catalan and Motzkin numbers from their closed forms."""
    cat = [catalan_direct(x) for x in range(max_n + 1)]
    mot = [0] + [motzkin_direct(k - 1) for k in range(1, max_n + 1)]
    a = composition_sums(max_n, cat, mot)
    b = composition_sums(max_n, a, [1] * (max_n + 1))
    return a, [2 * v for v in b]


def composed_series_A(order):
    """The all-312 series as the paper writes it, (c - 1) * m(c - 1), by
    Horner composition of the Motzkin series: the reference for the
    library's coefficient-by-coefficient ``series_A``."""
    from threecycle import series

    u = series.catalan_series(order) - series.one(order)
    return u * series.motzkin_series(order).compose(u)


def recurrence_B(max_n):
    """B(1..max_n), the 132-avoider counts, by the order-2 recurrence with
    polynomial coefficients guessed from the series (not proved):
    3(n+1)(n+2) B(n+2) = 2(n+1)(14n+15) B(n+1) - 4(4n+1)(4n+3) B(n), from
    B(1), B(2) = 2, 8, each division exact.  The reference for ``series_B``
    that shares no code with it."""
    b = [None, 2, 8]
    for n in range(1, max_n - 1):
        num = (
            2 * (n + 1) * (14 * n + 15) * b[n + 1]
            - 4 * (4 * n + 1) * (4 * n + 3) * b[n]
        )
        q, r = divmod(num, 3 * (n + 1) * (n + 2))
        assert r == 0, n
        b.append(q)
    return b[1 : max_n + 1]


def recurrence_A(max_n):
    """A(1..max_n), the all-312 132-avoider counts, by the order-3 recurrence
    guessed from the series (not proved), from A(1..3) = 1, 3, 11, each
    division exact:
    3(n+2)(n+3)(n+4)(4n+3) A(n+3) = 8(n+2)(n+3)(20n^2+53n+27) A(n+2)
    - 8(n+2)(4n+7)(22n^2+38n+15) A(n+1) + 8(2n+1)(4n+1)(4n+3)(4n+7) A(n)."""
    a = [None, 1, 3, 11]
    for n in range(1, max_n - 2):
        num = (
            8 * (n + 2) * (n + 3) * (20 * n * n + 53 * n + 27) * a[n + 2]
            - 8 * (n + 2) * (4 * n + 7) * (22 * n * n + 38 * n + 15) * a[n + 1]
            + 8 * (2 * n + 1) * (4 * n + 1) * (4 * n + 3) * (4 * n + 7) * a[n]
        )
        q, r = divmod(num, 3 * (n + 2) * (n + 3) * (n + 4) * (4 * n + 3))
        assert r == 0, n
        a.append(q)
    return a[1 : max_n + 1]


def tset_sum_by_enumeration(n):
    """The sum of 2^h over the staircase sets of size n, one scan per set:
    the reference for the library's staircase automaton."""
    from threecycle import _kernels, avoid321

    return sum(2 ** _kernels.h_of_tset(t) for t in avoid321.enumerate_tsets(n))


def first_choices(n):
    """The star walk's root choices ``(b, c, form)`` in walk order: each
    partner pair with 231 before 312."""
    from threecycle import _kernels

    return [(b, c, f) for b, c in _kernels.star_pairs(n) for f in ("231", "312")]


def star_visits(n, root, form=None, patterns=(), prune=True):
    """The star walk's visits under ``root``: each member's buffer, copied
    as it is visited, with its mask."""
    from threecycle import _kernels

    seen = []
    _kernels.star_walk(
        n, root, lambda p, mask: seen.append((tuple(p), mask)), form, patterns, prune
    )
    return seen


def star_part(n, choice, form=None, patterns=()):
    """The pruned star walk's members under one first-cycle choice."""
    return [p for p, _ in star_visits(n, choice, form, patterns)]


def staircase_word(t):
    """The z/x/y word of a staircase set, its balanced-prefix statistic h
    and its cuts (the y counts at which h grows), by the greedy rule written
    letter by letter, apart from the library's staircase scan: the reference
    the scan is pinned against."""
    n = len(t)
    in_t = bytearray(3 * n + 1)
    for v in t:
        in_t[v] = 1
    letters = []
    cuts = []
    z_at_x = [0] * n
    x = y = z = h = 0
    for pos in range(1, 3 * n + 1):
        if in_t[pos]:
            letters.append("z")
            z += 1
            continue
        if x == y or z_at_x[y] != x:
            letters.append("x")
            z_at_x[x] = z
            x += 1
        else:
            letters.append("y")
            y += 1
            if x == y:
                h += 1
                cuts.append(y)
    return "".join(letters), h, tuple(cuts)


def insert_by_rerank(p, letter):
    """One E/L/R insertion as the paper states it: the three new entries go
    in at their slots with their forced values, and the old entries are
    re-ranked order-preservingly around them.  The reference the library's
    linked-order encoding is pinned against."""
    m = len(p)
    a = p.index(m) + 1  # the maximum's position
    b = p[m - 1]  # the position holding value a
    new_values = {
        "E": {m + 1, m + 2, m + 3},
        "L": {a, b + 1, m + 3},
        "R": {a, b + 2, m + 3},
    }[letter]
    lo, mid, hi = sorted(new_values)
    fresh = [v for v in range(1, m + 4) if v not in new_values]
    out = []
    for pos in range(1, m + 1):
        if letter != "E" and pos == a:
            out.append(hi)
        if letter == "L" and pos == b:
            out.append(lo)
        out.append(fresh[p[pos - 1] - 1])
        if letter == "R" and pos == b:
            out.append(lo)
    if letter == "E":
        out.extend((hi, lo, mid))
    else:
        out.append(mid)
    return tuple(out)


@pytest.fixture(scope="session")
def star_sets():
    """Members of the star sets for n = 1..4, computed once via the library
    generator (itself validated against star_by_filter for n <= 2)."""
    from threecycle import perm

    return {n: list(perm.iterate_star(n)) for n in range(1, 5)}
