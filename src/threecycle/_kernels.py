"""The hot kernels: pattern containment, the star walk that every search runs
on, exhaustive counting and profiling, and the balanced-prefix statistic.

Conventions: permutations are 1-based one-line sequences; a 3-cycle placed as
a -> b -> c with a < b < c realizes the pattern 231, while a -> c -> b
realizes 312.  ``ORIENT_231`` and ``ORIENT_312`` name those two orientations.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

BACKEND = "python"

ORIENT_231 = 1
ORIENT_312 = 2

#: Fixed pattern order for avoidance-profile bit masks (bit i set = avoids
#: PROFILE_PATTERNS[i]).
PROFILE_PATTERNS = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)


def contains_pattern3(values: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some length-3 subsequence of ``values`` is order-isomorphic to
    ``pattern``.  Early-exits on the first witness."""
    pa, pb, pc = pattern
    ab = pa < pb
    bc = pb < pc
    ac = pa < pc
    m = len(values)
    for i in range(m - 2):
        vi = values[i]
        for j in range(i + 1, m - 1):
            vj = values[j]
            if (vi < vj) != ab:
                continue
            for k in range(j + 1, m):
                vk = values[k]
                if (vj < vk) == bc and (vi < vk) == ac:
                    return True
    return False


def _orientations(form: str | None) -> tuple[int, ...]:
    if form is None:
        return (ORIENT_231, ORIENT_312)
    if form == "231":
        return (ORIENT_231,)
    if form == "312":
        return (ORIENT_312,)
    raise ValueError(f"unknown form filter: {form!r}")


def star_walk(
    n: int,
    first: tuple[int, int, int] | None = None,
    form: str | None = None,
    patterns: Sequence[Sequence[int]] = (),
    prune: bool = True,
) -> Iterator[tuple[list[int], int, int, int]]:
    """Depth-first walk over the permutations of [3n] built only from
    3-cycles, tracking which of ``patterns`` their entries contain.

    The smallest unplaced element picks its two cycle partners (pairs in
    lexicographic order) and an orientation (a -> b -> c before a -> c -> b),
    so the order is reproducible.  ``form`` ("231" or "312") allows only one
    orientation.  ``first`` fixes the cycle of element 1 to partners
    ``(b, c)`` with orientation ``ORIENT_231`` or ``ORIENT_312``; the walks
    over all such choices partition the whole walk.

    Each node carries the mask of the patterns the entries placed so far
    contain (bit i for ``patterns[i]``).  A placed entry never changes, so an
    occurrence among the placed entries is one in every permutation below:
    the mask only grows, and a node tests only the patterns not yet in it.

    With ``prune`` (the default) the patterns are avoided: a subtree is
    dropped as soon as its mask is not empty, so the walk yields exactly the
    members avoiding every pattern.  Without it the walk keeps every member,
    and once the mask holds every pattern (``patterns`` not empty), all
    completions of the subtree share that mask: the subtree is yielded once,
    unwalked, with its unplaced positions still 0.

    Yields ``(perm, n231, mask, left)``: the one-line buffer (a list reused
    between yields: copy it to keep it), the number of 231-form cycles
    placed, the mask, and the number of cycles still to place (0 for a
    member; more only for an unwalked subtree).  ``n = 0`` yields nothing.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    orients = _orientations(form)
    m = 3 * n
    perm = [0] * m  # perm[i - 1] is the image of i; 0 while i is unplaced
    pats = [tuple(p) for p in patterns]
    tests = [(1 << i, p) for i, p in enumerate(pats)]
    full = (1 << len(pats)) - 1 if pats and not prune else -1

    def children(
        depth: int, n231: int, mask: int
    ) -> Iterator[tuple[list[int], int, int, int]]:
        a = perm.index(0)
        for b in range(a + 1, m):
            if perm[b]:
                continue
            for c in range(b + 1, m):
                if perm[c]:
                    continue
                for orient in orients:
                    yield from extend(a, b, c, orient, depth, n231, mask)
                perm[a] = perm[b] = perm[c] = 0

    def extend(
        a: int, b: int, c: int, orient: int, depth: int, n231: int, mask: int
    ) -> Iterator[tuple[list[int], int, int, int]]:
        # place the cycle on positions a < b < c (0-based) as cycle number
        # ``depth``; the caller clears it
        if orient == ORIENT_231:
            perm[a], perm[b], perm[c] = b + 1, c + 1, a + 1
            n231 += 1
        else:
            perm[a], perm[b], perm[c] = c + 1, a + 1, b + 1
        if tests:
            placed = [v for v in perm if v]
            if prune:
                if any(contains_pattern3(placed, p) for p in pats):
                    return
            else:
                for bit, p in tests:
                    if not mask & bit and contains_pattern3(placed, p):
                        mask |= bit
                if mask == full:
                    yield perm, n231, mask, n - depth
                    return
        if depth == n:
            yield perm, n231, mask, 0
        else:
            yield from children(depth + 1, n231, mask)

    if n == 0:
        return
    if first is None:
        yield from children(1, 0, 0)
        return
    b, c, orient = first
    if not (2 <= b < c <= m) or orient not in (ORIENT_231, ORIENT_312):
        raise ValueError(f"invalid first-cycle choice {first} for n={n}")
    if orient in orients:
        yield from extend(0, b - 1, c - 1, orient, 1, 0, 0)


def count_avoiders(
    n: int,
    patterns: Sequence[Sequence[int]],
    form: str | None = None,
    first: tuple[int, int, int] | None = None,
) -> int:
    """Count permutations of [3n] built only from 3-cycles that avoid every
    pattern in ``patterns`` (each of length 3), with cycle forms restricted by
    ``form`` (None, "312" or "231").

    ``first`` optionally fixes the cycle of element 1 to partners ``(b, c)``
    with orientation ``ORIENT_231`` or ``ORIENT_312``; the counts over all
    choices sum to the unrestricted count, which is what the parallel
    partitioning relies on.
    """
    return sum(1 for _ in star_walk(n, first, form, patterns))


def triple_splits(k: int) -> int:
    """The ways to split 3k elements into k unordered triples,
    (3k)! / (k! 6^k); each triple closes as a 3-cycle in two orientations,
    so ``triple_splits(k) * 2**k`` is the star-set size for ``k``.

    >>> [triple_splits(k) for k in range(4)]
    [1, 1, 10, 280]
    """
    return math.factorial(3 * k) // (math.factorial(k) * 6**k)


def completion_rows(n231: int, placed: int, left: int) -> tuple[int, int, int]:
    """How the ``triple_splits(left) * 2**left`` completions of a node with
    ``placed`` cycles (``n231`` of them 231-form) and ``left`` cycles to place
    split over the profile rows: (mixed, all-312, all-231).  The
    ``triple_splits(left)`` completions whose new cycles are all 312 are
    all-312 when no placed cycle is 231, and likewise for 231; the rest are
    mixed.

    >>> completion_rows(0, 2, 2)
    (30, 10, 0)
    """
    each = triple_splits(left)
    all312 = each if n231 == 0 else 0
    all231 = each if n231 == placed else 0
    return (each << left) - all312 - all231, all312, all231


def avoidance_profile(
    n: int, first: tuple[int, int, int] | None = None
) -> list[list[int]]:
    """The 3-cycle-only permutations of [3n] histogrammed by (form class,
    avoidance mask), from one walk of the star set.

    Returns a 3 x 64 table: row 0 counts permutations with mixed cycle forms,
    row 1 all-312, row 2 all-231; column ``mask`` has bit i set when the
    permutation avoids ``PROFILE_PATTERNS[i]``.  Any single-pattern-set query
    over length-3 patterns is a sum of cells of this table.

    The walk (``star_walk`` unpruned) carries the mask of the patterns the
    placed entries contain and tests each node only for the patterns not yet
    in it, so a member's column is known once its last cycle is placed, with
    no scan of the finished permutation.  A subtree whose placed entries
    already contain all six patterns is not walked: all of its completions
    land in column 0, split over the rows by :func:`completion_rows`.
    """
    table = [[0] * 64 for _ in range(3)]
    # rows[left][n231]: completion_rows for a saturated subtree
    rows = [
        [completion_rows(n231, n - left, left) for n231 in range(n - left + 1)]
        for left in range(n)
    ]
    for _, n231, contained, left in star_walk(n, first, None, PROFILE_PATTERNS, False):
        col = 63 ^ contained
        if left:
            mixed, all312, all231 = rows[left][n231]
            table[0][col] += mixed
            table[1][col] += all312
            table[2][col] += all231
        elif n231 == 0:
            table[1][col] += 1
        elif n231 == n:
            table[2][col] += 1
        else:
            table[0][col] += 1
    return table


def h_of_tset(t: Sequence[int]) -> int:
    """Balanced-prefix statistic of the z/x/y word determined by a staircase
    set: the number of indices i whose prefix ending at the i-th y holds
    exactly i x's.  Input is assumed validated (strictly increasing,
    t[i] <= 3i - 2)."""
    n = len(t)
    m = 3 * n
    is_z = bytearray(m + 1)
    for v in t:
        is_z[v] = 1
    z_at_x = [0] * n
    x = y = z = h = 0
    for pos in range(1, m + 1):
        if is_z[pos]:
            z += 1
            continue
        if x == y or z_at_x[y] != x:
            z_at_x[x] = z
            x += 1
        else:
            y += 1
            if x == y:
                h += 1
    return h
