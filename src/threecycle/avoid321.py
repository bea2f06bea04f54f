"""321-avoiding star permutations: staircase sets, the z/x/y word algorithm,
the all-312 construction and its lattice-path bijection, mixed-form members
generated per balanced segment, and the two independent counting routes
(sum of 2^h over staircase sets, by the staircase automaton, vs. the weighted
sum over Dyck words, which is the h-polynomial evaluated at 2).  The Dyck
sum is computed word by word (the h-polynomial), each word read only from
where it leaves the previous one, and by a transfer over the letters that
merges words in equal states (:func:`dyck_h_sum`).

A staircase set is an n-subset {t1 < ... < tn} of [3n] with ti <= 3i - 2.
It determines a word over z/x/y (z on the set, x and y placed by a greedy
balance rule) and through it a unique all-312 member; staircase sets are
counted by the Fuss-Catalan number binom(3n, n) / (2n + 1).  Cutting the
cycle indices at the word's balanced prefixes yields independent segments
whose cycles may flip between the 312 and 231 forms, giving 2^h members per
set and the full 321-avoiding class.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, NamedTuple, Sequence

from threecycle import _kernels, perm, words
from threecycle.errors import MAX_DIGITS, InternalInvariantError, ResourceLimitError

#: the two cycle forms, 312 first: ``_kernels.FORMS`` less None
FORM_CHOICES = _kernels.FORMS[1:]

#: The Dyck-word sum walks all Catalan(n) words; at this n, 742,900 of them,
#: ``hpoly --n`` takes about 2 s on one core.
DYCK_LIMIT = 13

#: The staircase automaton's states about double per n: about 2^(n+2) over
#: all slots, at most 16,887 after one slot at n = 15.  At this n a count
#: takes about 10 s and 250 MB on one core, and so does ``count --pattern 321
#: --n 1..TSET_LIMIT``, which reads every n off that one pass.  The Dyck-path
#: transfer (:func:`dyck_h_sum`) has about as many states and shares the
#: bound: at n = 20 it takes about 13 s and 310 MB.
TSET_LIMIT = 20

#: Listing the staircase sets themselves (:func:`enumerate_tsets`, ``paths
#: --n``) makes all Fuss-Catalan(n) of them, about 5.5 times more per n: at
#: this n, 1,430,715 sets, and ``paths --n`` prints 80 MB in about 11 s.
TSET_LIST_LIMIT = 10


def _log10_fuss_catalan(n: int) -> float:
    return (
        math.lgamma(3 * n + 1) - math.lgamma(n + 1) - math.lgamma(2 * n + 1)
    ) / math.log(10) - math.log10(2 * n + 1)


def _fuss_limit() -> int:
    """The largest n whose Fuss-Catalan number has at most ``MAX_DIGITS``
    digits, that is log10 < MAX_DIGITS.  The number is below (27/4)^n, so the
    search starts at an n that fits."""
    n = int(MAX_DIGITS / math.log10(27 / 4))
    while _log10_fuss_catalan(n + 1) < MAX_DIGITS:
        n += 1
    return n


FUSS_LIMIT = _fuss_limit()


def fuss_catalan(n: int) -> int:
    """binom(3n, n) / (2n + 1), exact; refused above ``FUSS_LIMIT``.

    >>> [fuss_catalan(n) for n in range(1, 6)]
    [1, 3, 12, 55, 273]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > FUSS_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the Fuss-Catalan bound n <= {FUSS_LIMIT}:"
            f" the answer would have more than {MAX_DIGITS} digits"
        )
    return math.comb(3 * n, n) // (2 * n + 1)


def check_tset(t: Sequence[int]) -> tuple[int, ...]:
    """Validate the staircase conditions and return the set as a tuple."""
    t = tuple(t)
    if not t:
        raise ValueError("staircase set must be non-empty")
    if t[0] < 1:
        raise ValueError(f"staircase set elements must be >= 1: {t}")
    prev = 0
    for i, v in enumerate(t, start=1):
        if v <= prev:
            raise ValueError(f"staircase set must increase strictly: {t}")
        if v > 3 * i - 2:
            raise ValueError(f"element {i} violates the bound 3i-2: {t}")
        prev = v
    return t


def enumerate_tsets(n: int) -> Iterator[tuple[int, ...]]:
    """All staircase sets of size n, lexicographic; Fuss-Catalan many.
    Refused with ResourceLimitError above ``TSET_LIST_LIMIT``, before the
    first set."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TSET_LIST_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the staircase-set listing bound n <= {TSET_LIST_LIMIT}"
        )
    t: list[int] = []

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i > n:
            yield tuple(t)
            return
        lo = t[-1] + 1 if t else 1
        for v in range(lo, 3 * i - 1):
            t.append(v)
            yield from rec(i + 1)
            t.pop()

    return rec(1)


def word_of_tset(t: Sequence[int]) -> str:
    """The z/x/y word of a staircase set, as the staircase scan
    (:func:`threecycle._kernels.tset_scan`) writes it.

    >>> word_of_tset((1, 2, 3, 6, 11, 14))
    'zzzxxzxyyxzyyzxxyy'
    """
    return _read_scan(check_tset(t))[0]


def _read_scan(t: tuple[int, ...]) -> tuple[str, tuple[int, ...], list[int], list[int]]:
    """One staircase scan of a checked set: its word, its balanced-prefix
    cuts, and the x and y slots (1-based, in order).  The i-th z (slot t[i])
    must precede the i-th x, which must precede the i-th y."""
    codes, cuts = _kernels.tset_scan(t)
    word = codes.decode()
    xs = [slot for slot, ch in enumerate(word, 1) if ch == "x"]
    ys = [slot for slot, ch in enumerate(word, 1) if ch == "y"]
    if not len(xs) == len(ys) == len(t):
        raise InternalInvariantError(f"unbalanced word for {t}: {word}")
    for i in range(len(t)):
        if not t[i] < xs[i] < ys[i]:
            raise InternalInvariantError(
                f"z/x/y precedence violated at index {i + 1} for {t}: {word}"
            )
    return word, cuts, xs, ys


def perm_from_choices(t: Sequence[int], forms: Sequence[str]) -> perm.Perm:
    """Build the member of the 321-avoiding class for a staircase set and one
    form choice per balanced segment.

    Cycle i uses values (x_i, y_i, z_i) = (i-th smallest of the set, of the x
    positions, of the y positions); a 312 segment wires x -> z -> y -> x and
    a 231 segment wires x -> y -> z -> x.
    """
    t = check_tset(t)
    _, cuts, xs, ys = _read_scan(t)
    forms = tuple(forms)
    if len(forms) != len(cuts):
        raise ValueError(
            f"need one form per balanced segment ({len(cuts)}), got {len(forms)}"
        )
    if any(f not in FORM_CHOICES for f in forms):
        raise ValueError(f"forms must be drawn from {FORM_CHOICES}: {forms}")
    out = [0] * (3 * len(t))
    start = 0
    for cut, form in zip(cuts, forms):
        for x, y, z in zip(t[start:cut], xs[start:cut], ys[start:cut]):
            if form == perm.FORM_312:
                out[x - 1], out[z - 1], out[y - 1] = z, y, x
            else:
                out[x - 1], out[y - 1], out[z - 1] = y, z, x
        start = cut
    return perm.check_permutation(out)


def perm_from_tset(t: Sequence[int]) -> perm.Perm:
    """The unique all-312 member of the 321-avoiding class for a staircase
    set.

    >>> perm_from_tset((1, 2))
    (5, 6, 1, 2, 3, 4)
    """
    t = check_tset(t)
    return perm_from_choices(t, (perm.FORM_312,) * _kernels.h_of_tset(t))


def enumerate_321(n: int) -> Iterator[perm.Perm]:
    """All 321-avoiding star permutations, one per (staircase set, segment
    form vector), sets lexicographic, form vectors with 312 before 231."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for t in enumerate_tsets(n):
        for forms in itertools.product(FORM_CHOICES, repeat=_kernels.h_of_tset(t)):
            yield perm_from_choices(t, forms)


def _checked_range(n: int | range, route: str) -> range:
    """``n`` as a range, one n or an increasing range of n >= 1, refused
    above ``TSET_LIMIT``, the bound of the named route."""
    ns = n if isinstance(n, range) else range(n, n + 1)
    if not ns or ns.start < 1 or ns.step < 1:
        raise ValueError("n must be >= 1, or an increasing range of such n")
    if ns[-1] > TSET_LIMIT:
        raise ResourceLimitError(
            f"n={ns[-1]} exceeds the {route} bound n <= {TSET_LIMIT}"
        )
    return ns


def tset_h_sum(n: int | range, t: int) -> int | list[int]:
    """The sum of t^h over the staircase sets of size n, h the balanced-prefix
    statistic of each set's z/x/y word, by the staircase automaton; for an
    increasing range of n, the sum for every n in it, off one pass.  Refused
    above ``TSET_LIMIT``.

    The automaton reads the slots 1..3n left to right, and each staircase
    set is one path through it: z on the set's slots, and on the others the
    letter the greedy rule (:func:`threecycle._kernels.is_y_slot`) writes.
    After a slot, a path's state is (x, y, waiting): the x and y counts so
    far, and the z count recorded at each x that has no y yet, earliest
    first; the z count is the slot minus x and y.  The rule reads nothing
    else, so the paths in one state have the same continuations and are
    merged, the state carrying the sum of t^h over them.  At each slot:

    * a z is allowed while z < n (the largest n of a range), and forced when the slot is 3z + 1 (the
      staircase bound: the (z+1)-th element is at most 3(z+1) - 2), so every
      path is a staircase set and ends in the state (n, n, ());
    * otherwise the rule writes x, recording z, or y, closing the earliest
      waiting x;
    * a y that leaves x = y balances the prefix and multiplies by t.

    At t = 2 this is the 321 count, at t = 1 the Fuss-Catalan number, and at
    t = 2^b with 2^b above the Fuss-Catalan number, its base-2^b digits are
    the coefficients of the h-polynomial.  The states about double per n,
    about 2^(n+2) over all slots, far fewer than the Fuss-Catalan(n) sets.

    The pass for the largest n of a range holds every smaller n': after slot
    3n', the state (n', n', ()) carries exactly the paths of the pass for n'.
    A path reaching it has n' z's, and the z count only grows, so the cap
    z < n never acted on it.

    >>> [tset_h_sum(n, 2) for n in range(1, 5)]
    [2, 10, 60, 388]
    >>> tset_h_sum(range(1, 5), 2)
    [2, 10, 60, 388]
    """
    ns = _checked_range(n, "staircase automaton")
    top = ns[-1]
    is_y_slot = _kernels.is_y_slot
    sums = []
    states: dict[tuple[int, int, tuple[int, ...]], int] = {(0, 0, ()): 1}
    for slot in range(1, 3 * top + 1):
        merged: dict[tuple[int, int, tuple[int, ...]], int] = {}
        for (x, y, waiting), weight in states.items():
            z = slot - 1 - x - y
            if z < top:
                key = (x, y, waiting)
                merged[key] = merged.get(key, 0) + weight
                if slot == 3 * z + 1:
                    continue
            # with no x waiting, x == y and the rule writes x whatever it reads
            if is_y_slot(x, y, waiting[0] if waiting else 0):
                y += 1
                key = (x, y, waiting[1:])
                if x == y:
                    weight *= t
            else:
                key = (x + 1, y, waiting + (z,))
            merged[key] = merged.get(key, 0) + weight
        states = merged
        if slot % 3 == 0 and slot // 3 in ns:
            sums.append(states[slot // 3, slot // 3, ()])
    return sums if isinstance(n, range) else sums[0]


def count_321_via_tsets(n: int | range) -> int | list[int]:
    """The 321 count as the sum of 2^h over all staircase sets, read off the
    staircase automaton (:func:`tset_h_sum` at t = 2); given an increasing
    range of n, the counts for every n in it, off one pass.  Refused above
    ``TSET_LIMIT``.

    >>> [count_321_via_tsets(n) for n in range(1, 5)]
    [2, 10, 60, 388]
    >>> count_321_via_tsets(range(2, 5))
    [10, 60, 388]
    """
    return tset_h_sum(n, 2)


def tset_to_path(t: Sequence[int]) -> str:
    """The east/north lattice path from (0,0) to (2n,n) staying weakly below
    the line y = x/2 that corresponds to a staircase set: mark the set's
    positions north in a 3n-step word and reverse it.

    >>> tset_to_path((1, 4))
    'EENEEN'
    """
    t = check_tset(t)
    chars = ["E"] * (3 * len(t))
    for v in t:
        chars[v - 1] = "N"
    return "".join(reversed(chars))


def path_to_tset(path: str) -> tuple[int, ...]:
    """Inverse of :func:`tset_to_path`; rejects malformed paths (bad letters,
    unbalanced step counts, or a prefix climbing above y = x/2)."""
    m = len(path)
    if m % 3 or m == 0:
        raise ValueError(f"path length must be a positive multiple of 3: {path!r}")
    east = north = 0
    for ch in path:
        if ch == "E":
            east += 1
        elif ch == "N":
            north += 1
            if 2 * north > east:
                raise ValueError(f"path climbs above y = x/2: {path!r}")
        else:
            raise ValueError(f"path letters must be E or N: {path!r}")
    if north * 3 != m:
        raise ValueError(f"path needs 2n east and n north steps: {path!r}")
    t = tuple(sorted(m - i for i, ch in enumerate(path) if ch == "N"))
    return check_tset(t)


class DyckStats(NamedTuple):
    """Statistics of a Dyck word over x/y: the balanced-prefix count h, and
    the gap vectors r (y's between consecutive x's) and s (x's between
    consecutive y's)."""

    word: str
    h: int
    r: tuple[int, ...]
    s: tuple[int, ...]

    def binomial_weight(self) -> int:
        return math.prod(math.comb(ri + si, ri) for ri, si in zip(self.r, self.s))


def dyck_stats(word: str) -> DyckStats:
    """Compute (h, r, s) for a Dyck word over x/y in one scan: a y seen after
    the i-th x (i < n) adds to r_i, and an x seen after the i-th y (i < n) adds
    to s_i.

    >>> dyck_stats("xyxy")
    DyckStats(word='xyxy', h=2, r=(1,), s=(1,))
    """
    if not words.is_balanced(word, "x", "y"):
        raise ValueError(f"not a Dyck word over x/y: {word!r}")
    n = len(word) // 2
    r = [0] * n
    s = [0] * n
    x = y = h = 0
    for ch in word:
        if ch == "x":
            s[y - 1] += 1  # s[-1], the x's before the first y, is dropped
            x += 1
        else:
            r[x - 1] += 1  # r[n - 1], the y's after the last x, is dropped
            y += 1
            if x == y:
                h += 1
    return DyckStats(word, h, tuple(r[:-1]), tuple(s[:-1]))


def tsets_for_dyck(word: str) -> Iterator[tuple[int, ...]]:
    """The staircase sets whose z/x/y word restricts to the given Dyck word
    on its x/y letters: prod binom(ri+si, ri) many, produced by interleaving
    si z's with the ri y's of each gap (and the forced leading z's).

    Every candidate is re-validated through :func:`word_of_tset`; a mismatch
    is a bug and raises rather than being skipped.
    """
    if not word:
        raise ValueError("the Dyck word must be non-empty")
    stats = dyck_stats(word)
    n = len(word) // 2
    # leading z's: one more than the initial run of zero gaps in r
    k = 1
    for ri in stats.r:
        if ri:
            break
        k += 1
    if k + sum(stats.s) != n:
        raise InternalInvariantError(
            f"z budget broken for {word}: lead {k}, gaps {stats.s}"
        )
    gap_choices = []
    for ri, si in zip(stats.r, stats.s):
        gap_choices.append(
            [
                "".join(g)
                for g in _interleavings(ri, si)
            ]
        )
    trailing_y = n - sum(stats.r)
    for gaps in itertools.product(*gap_choices):
        pieces = ["z" * k, "x"]
        for gap in gaps:
            pieces.append(gap)
            pieces.append("x")
        pieces.append("y" * trailing_y)
        candidate = "".join(pieces)
        t = tuple(i + 1 for i, ch in enumerate(candidate) if ch == "z")
        if word_of_tset(t) != candidate:
            raise InternalInvariantError(
                f"interleaving {candidate} is not the word of {t}"
            )
        yield t


def _interleavings(ys: int, zs: int) -> Iterator[tuple[str, ...]]:
    """All words with ``ys`` y's and ``zs`` z's, by choice of y slots."""
    total = ys + zs
    for yslots in itertools.combinations(range(total), ys):
        chosen = set(yslots)
        yield tuple("y" if i in chosen else "z" for i in range(total))


def count_321_via_dyck(n: int) -> int:
    """The weighted sum over all Dyck words of semilength n of
    2^h * prod binom(ri+si, ri): the h-polynomial evaluated at 2.  Equals
    the staircase-set route.

    >>> [count_321_via_dyck(n) for n in range(1, 6)]
    [2, 10, 60, 388, 2606]
    """
    return h_polynomial(n).evaluate(2)


class HPolynomial(NamedTuple):
    """The balanced-prefix generating polynomial for one n: coefficient h is
    the total binomial weight of the Dyck words with that statistic.
    Evaluating at 1 gives the Fuss-Catalan number; at 2, the size of the
    321-avoiding class."""

    coefficients: tuple[int, ...]

    def evaluate(self, t: int) -> int:
        return sum(c * t**k for k, c in enumerate(self.coefficients))


def h_polynomial(n: int) -> HPolynomial:
    """Exact coefficients of the statistic-weighted polynomial for size n,
    summed word by word over all Catalan(n) Dyck words: the paper's literal
    route, and the reference :func:`dyck_h_sum` is tested against.  Refused
    with ResourceLimitError above ``DYCK_LIMIT``.

    Each word is scanned left to right by :func:`dyck_stats`' rule, in the
    state :func:`dyck_h_sum` keeps, with h and the weight so far:

    * an x opens a 0 gap and adds one to s_run, the x's since the last y;
    * a y adds one to the last gap, and once y >= 2 it closes pair y - 2:
      multiply by binom(r[y-2] + s_run, s_run) and reset s_run;
    * a y that leaves x = y balances the prefix and adds one to h.

    The state after every prefix is kept, so a word is read only from its
    first letter that differs from the previous word's; openers-first,
    consecutive words differ in a short suffix (4.9 of 20 letters read per
    word at n = 10).  Each prefix's state holds its open gap; the closed
    gaps are final and kept in one buffer indexed by x, which the letters
    after a prefix never write below that prefix's x, so the sum does not
    depend on the order of the words.

    >>> h_polynomial(2).coefficients
    (0, 1, 2)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DYCK_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the Dyck-word sum bound n <= {DYCK_LIMIT}"
        )
    comb = math.comb
    length = 2 * n
    coeffs = [0] * (n + 1)
    # closed[i]: the final gap r[i - 1], written when the (i + 1)-th x opens
    closed = [0] * n
    # states[k]: (x, y, s_run, gap, h, weight) after the first k letters
    states = [(0, 0, 0, 0, 0, 1)] * (length + 1)
    last = 0
    for word in words.dyck_words(n, "x", "y"):
        code = int.from_bytes(word.encode(), "big")
        # the first differing letter is the top set byte of the xor
        start = length - 1 - ((code ^ last).bit_length() - 1) // 8
        last = code
        x, y, s_run, gap, h, weight = states[start]
        for k in range(start, length):
            if word[k] == "x":
                closed[x] = gap
                x += 1
                s_run += 1
                gap = 0
            else:
                gap += 1
                y += 1
                if y >= 2:  # pair y - 2 is final: r from the buffer, s the run
                    weight *= comb(closed[y - 1] + s_run, s_run)
                s_run = 0
                if x == y:
                    h += 1
            states[k + 1] = (x, y, s_run, gap, h, weight)
        coeffs[h] += weight
    return HPolynomial(tuple(coeffs))


def dyck_h_sum(n: int | range, t: int) -> int | list[int]:
    """The sum over the x/y Dyck words of semilength n of t^h * prod
    binom(ri+si, ri), with h, r and s as :func:`dyck_stats` defines them, by
    a transfer over the letters that walks no word; for an increasing range
    of n, the sum for every n in it, off one pass.  Refused above
    ``TSET_LIMIT``.

    The transfer reads the letters left to right, and each Dyck word is one
    path through it.  After a letter, a path's state is (x, y, s_run, gaps):
    the x and y counts so far, the x's since the last y (or since the start,
    which no pair reads), and the r of each x not yet paired (r[y-1] ..
    r[x-1], from r[0] before the first y), the last one still growing.
    Pair i is closed, and its binomial taken, at the y that makes y = i + 2:
    then r[i] and s[i] are final.  Paths in one state have the same
    continuations and are merged, the state carrying the weighted sum over
    them.  At each letter:

    * an x is allowed while x < n (the largest n of a range); it opens a 0
      gap and adds one to s_run;
    * a y is allowed while y < x; it adds one to the last gap, and once
      y >= 2 it closes pair y - 2: multiply by binom(gaps[0] + s_run,
      s_run), drop gaps[0] and reset s_run;
    * a y that leaves x = y balances the prefix and multiplies by t.

    The last pair (r[n-1], s[n-1]) is never closed, as :func:`dyck_stats`
    drops it.  At t = 1 this is the Fuss-Catalan number, at t = 2 the 321
    count.  The states grow like the staircase automaton's, about 2^n, far
    fewer than the Catalan(n) words: 4,027 over all letters at n = 10,
    against 16,796 words.

    The pass for the largest n of a range holds every smaller n': after
    2n' letters, the states with x = y = n' carry exactly the paths of the
    pass for n'.  Such a path has n' x's, so the cap x < n never acted on
    it, and every state after 2n' letters of the pass for n' has x = y = n'.

    >>> [dyck_h_sum(n, 1) for n in range(1, 6)]
    [1, 3, 12, 55, 273]
    >>> dyck_h_sum(range(1, 6), 2)
    [2, 10, 60, 388, 2606]
    """
    ns = _checked_range(n, "Dyck-path transfer")
    top = ns[-1]
    comb = math.comb
    sums = []
    states: dict[tuple[int, int, int, tuple[int, ...]], int] = {(0, 0, 0, ()): 1}
    for letter in range(1, 2 * top + 1):
        merged: dict[tuple[int, int, int, tuple[int, ...]], int] = {}
        for (x, y, s_run, gaps), weight in states.items():
            if x < top:
                key = (x + 1, y, s_run + 1, gaps + (0,))
                merged[key] = merged.get(key, 0) + weight
            if y < x:
                gaps = gaps[:-1] + (gaps[-1] + 1,)
                y += 1
                if y >= 2:
                    weight *= comb(gaps[0] + s_run, s_run)
                    gaps = gaps[1:]
                if x == y:
                    weight *= t
                key = (x, y, 0, gaps)
                merged[key] = merged.get(key, 0) + weight
        states = merged
        if letter % 2 == 0 and letter // 2 in ns:
            # x + y = letter and y <= x, so y = letter / 2 says x = y
            half = letter // 2
            sums.append(sum(w for (_, y, _, _), w in states.items() if y == half))
    return sums if isinstance(n, range) else sums[0]


def dyck_identity_check(n: int | range) -> bool | list[bool]:
    """True iff the unweighted binomial sum over Dyck words of semilength n
    equals the Fuss-Catalan number; for an increasing range of n, the answer
    for every n in it.  The sums are read off one pass of the Dyck-path
    transfer (:func:`dyck_h_sum` at t = 1), so no word is walked; each equals
    the h-polynomial evaluated at 1.  Refused above ``TSET_LIMIT``."""
    ns = n if isinstance(n, range) else range(n, n + 1)
    answers = [s == fuss_catalan(k) for k, s in zip(ns, dyck_h_sum(ns, 1))]
    return answers if isinstance(n, range) else answers[0]
