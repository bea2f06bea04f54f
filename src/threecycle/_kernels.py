"""The search layer: pattern containment, the star walk under every count,
enumeration and profile, and the staircase scan behind every z/x/y word and
its balanced-prefix cuts, with its greedy rule (``is_y_slot``), which
the staircase automaton of :mod:`threecycle.avoid321` steps slot by slot.

Containment (``contained_patterns``) is one scan per wanted length-3
pattern, for 123, 132 and 213 over the values and for their reverses over
the values reversed, each from bit sets of the values left and right of each
entry; it answers with a bit mask over ``PROFILE_PATTERNS``.  The walk places
one 3-cycle per frame, and only ``_options`` orders the choices.  A count or
a profile covers one root partner pair (``star_pairs``): it walks the root
cycle 1 -> b -> c and reads the 1 -> c -> b half off its inverses
(``inverse_mask``).  The oracle adds up one call per pair.

Conventions: permutations are 1-based one-line sequences; a 3-cycle placed as
a -> b -> c with a < b < c realizes the pattern 231, while a -> c -> b
realizes 312.  The walk names each orientation by its form, ``FORM_231`` or
``FORM_312``.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

FORM_231 = "231"
FORM_312 = "312"

Option = tuple[int, int, int, str]  # a cycle choice (a, b, c, form), 0-based

#: Fixed pattern order for every pattern bit mask: bit i of a containment
#: mask is set when PROFILE_PATTERNS[i] is contained, of a profile column
#: when it is avoided.
PROFILE_PATTERNS = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (2, 3, 1),
    (3, 1, 2),
    (3, 2, 1),
)


_PATTERN_BITS = {p: 1 << i for i, p in enumerate(PROFILE_PATTERNS)}


def pattern_mask(patterns: Iterable[Sequence[int]]) -> int:
    """The mask of ``patterns``, each a permutation of 1..3; anything else
    raises ValueError.

    >>> pattern_mask([(3, 2, 1), (1, 2, 3)])
    33
    """
    mask = 0
    for p in patterns:
        bit = _PATTERN_BITS.get(tuple(p))
        if bit is None:
            raise ValueError(
                f"patterns must have length 3 (a permutation of 1..3): {tuple(p)}"
            )
        mask |= bit
    return mask


def _has_123(values: Iterable[int], bits: int) -> bool:
    low = right = bits  # low: the least value to the left as a bit, or bits
    for v in filter(None, values):
        bit = 1 << v
        right ^= bit
        if low < bit < right:  # ll and rh
            return True
        low = bit if bit < low else low
    return False


def _has_132(values: Iterable[int], bits: int) -> bool:
    low = right = bits  # as for 123; rl < bit, so rl > low says ll is not empty
    for v in filter(None, values):
        bit = 1 << v
        right ^= bit
        if right & (bit - 1) > low:
            return True
        low = bit if bit < low else low
    return False


def _has_213(values: Iterable[int], bits: int) -> bool:
    left, right = 0, bits
    for v in filter(None, values):
        bit = 1 << v
        right ^= bit
        lh = left & -bit
        if lh and lh & -lh < right:  # a bit of right above lowbit(lh) is in rh
            return True
        left |= bit
    return False


#: bit -> (scan, reversed?): the scans of 123, 132 and 213, and over the
#: reversed values, of their reverses 321, 231 and 312
_SCANS = {1: (_has_123, False), 2: (_has_132, False), 4: (_has_213, False)}
_SCANS.update({32: (_has_123, True), 8: (_has_132, True), 16: (_has_213, True)})


def contained_patterns(values: Sequence[int], bits: int, wanted: int) -> int:
    """The mask of the ``wanted`` patterns that ``values`` contain, one scan
    per wanted pattern.  ``values`` are distinct positive ints, 0 entries
    are skipped, and ``bits`` has bit ``v`` set for each value ``v``.

    At each value ``v`` the values to its left and right split into those
    below and above ``v`` (``ll, lh, rl, rh``), and ``v`` is the middle
    entry of a pattern exactly when ``lowbit(X) < Y``, a lowest set bit
    compared with an int (so X is not empty)::

        pattern  123  132  213  231  312  321
        X        ll   ll   lh   rl   rh   rl
        Y        rh   rl   rh   ll   lh   lh

    For 123 and 321 that is "both sets non-empty".  Reversing the values
    maps 321, 231 and 312 onto 123, 132 and 213, so three scans, each
    stopping at its first hit, run over ``values`` or ``reversed(values)``.

    >>> contained_patterns((2, 3, 1), 0b1110, 63)  # 231 only
    8
    >>> contained_patterns((3, 2, 1), 0b1110, 32)  # 321: a 123 reversed
    32
    """
    if wanted in _SCANS:
        scan, backwards = _SCANS[wanted]
        return wanted if scan(reversed(values) if backwards else values, bits) else 0
    return sum(
        bit
        for bit, (scan, backwards) in _SCANS.items()
        if wanted & bit and scan(reversed(values) if backwards else values, bits)
    )


def _options(perm: list[int], forms: tuple[str, ...]) -> Iterator[Option]:
    """The next cycle's choices on the buffer ``perm`` (0 = unplaced): the
    smallest unplaced ``a``, partners ``b < c`` in lexicographic order, then
    ``forms`` in turn.  Read lazily: clear a choice before drawing the next."""
    a = perm.index(0)
    m = len(perm)
    for b in range(a + 1, m):
        if perm[b]:
            continue
        for c in range(b + 1, m):
            if perm[c]:
                continue
            for form in forms:
                yield a, b, c, form


def star_pairs(n: int) -> list[tuple[int, int]]:
    """The root's partner pairs, 1-based ``(b, c)`` in walk order: the root
    cycle is 1 -> b -> c or 1 -> c -> b, and the walks under all pairs and
    both orientations partition the star walk at ``n``.

    >>> star_pairs(1), len(star_pairs(2))
    ([(2, 3)], 10)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(itertools.combinations(range(2, 3 * n + 1), 2))


def inverse_mask(mask: int) -> int:
    """The pattern mask of the inverses of ``mask``'s patterns.  231 and 312
    are each other's inverse and the other four are their own, so bits 3
    and 4 swap; a permutation contains a pattern exactly when its inverse
    contains the pattern's inverse.

    >>> inverse_mask(8), inverse_mask(16), inverse_mask(33)  # 231, 312, 123+321
    (16, 8, 33)
    """
    return mask & ~24 | mask >> 1 & 8 | mask << 1 & 16


def _inverse_form(form: str | None) -> str | None:
    # inverting a 3-cycle reverses it: a -> b -> c becomes a -> c -> b
    return {FORM_231: FORM_312, FORM_312: FORM_231}.get(form, form)


def _patterns(mask: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for i, p in enumerate(PROFILE_PATTERNS) if mask >> i & 1)


def star_walk(
    n: int,
    first: tuple[int, int, str] | None = None,
    form: str | None = None,
    patterns: Sequence[Sequence[int]] = (),
    prune: bool = True,
) -> Iterator[tuple[list[int], int, int, int]]:
    """Depth-first walk over the permutations of [3n] built only from
    3-cycles, tracking which of ``patterns`` their entries contain.

    Each cycle is one frame: it draws its choices from :func:`_options` (the
    smallest unplaced element, its partners in lexicographic order, a -> b ->
    c before a -> c -> b), so the order is reproducible.  ``form`` ("231" or
    "312") allows only one orientation.  ``first``, a root choice ``(b, c,
    form)`` with ``(b, c)`` in :func:`star_pairs`, is the only choice at the
    root; the walks over all such choices partition the whole walk.

    Each node carries the mask of the patterns the entries placed so far
    contain: bit i stands for ``PROFILE_PATTERNS[i]``, whatever the order of
    ``patterns`` (each a permutation of 1..3; anything else raises
    ValueError before the walk starts).  A placed entry never changes, so an
    occurrence among the placed entries is one in every permutation below:
    the mask only grows, and a node's one :func:`contained_patterns` call
    asks only for the patterns not yet in it.

    With ``prune`` (the default) the patterns are avoided: a subtree is
    dropped at its first contained pattern, so the walk yields exactly the
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
    if form not in (None, FORM_231, FORM_312):
        raise ValueError(f"unknown form filter: {form!r}")
    forms = (FORM_231, FORM_312) if form is None else (form,)
    want = pattern_mask(patterns)
    full = want if want and not prune else -1
    perm = [0] * (3 * n)  # perm[i - 1] is the image of i; 0 while i is unplaced

    def walk(
        depth: int, n231: int, mask: int, placed: int, options: Iterable[Option]
    ) -> Iterator[tuple[list[int], int, int, int]]:
        # place each option as cycle number ``depth``, then clear it; the
        # placed values are the placed positions, so ``placed`` (bit v for
        # value v) grows by the cycle's three
        for a, b, c, cycle_form in options:
            seen231 = n231
            if cycle_form == FORM_231:
                perm[a], perm[b], perm[c] = b + 1, c + 1, a + 1
                seen231 += 1
            else:
                perm[a], perm[b], perm[c] = c + 1, a + 1, b + 1
            bits = placed | 2 << a | 2 << b | 2 << c
            seen = mask
            # a node is visited only below a parent neither pruned nor
            # saturated, so some pattern is still wanted: one call per node
            if want:
                seen |= contained_patterns(perm, bits, want & ~mask)
            if not (prune and seen):
                if seen == full or depth == n:
                    yield perm, seen231, seen, n - depth
                else:
                    yield from walk(
                        depth + 1, seen231, seen, bits, _options(perm, forms)
                    )
            perm[a] = perm[b] = perm[c] = 0

    if n == 0:
        return
    if first is None:
        options: Iterable[Option] = _options(perm, forms)
    elif (
        len(first) == 3
        and 1 < first[0] < first[1] <= 3 * n
        and first[2] in (FORM_231, FORM_312)
    ):
        b, c, first_form = first
        options = [(0, b - 1, c - 1, first_form)] if first_form in forms else []
    else:
        raise ValueError(f"invalid first-cycle choice {first} for n={n}")
    yield from walk(1, 0, 0, 0, options)


def count_avoiders(
    n: int,
    patterns: Sequence[Sequence[int]],
    form: str | None,
    pair: tuple[int, int],
) -> int:
    """Count permutations of [3n] built only from 3-cycles that avoid every
    pattern in ``patterns`` (each of length 3), with cycle forms restricted by
    ``form`` (None, "312" or "231"), among those whose root cycle uses the
    partners ``pair`` (see :func:`star_pairs`); the pairs' counts sum to the
    whole.

    Only the 1 -> b -> c root is walked.  Inversion maps the members with
    root 1 -> c -> b onto those with root 1 -> b -> c, and a member avoiding
    ``patterns`` under ``form`` onto one avoiding their inverses
    (:func:`inverse_mask`) under the inverse form, so that walk counts the
    other half.  When the inverses are the patterns and the form, one walk
    counts both halves.
    """
    want = pattern_mask(patterns)
    mirror = (inverse_mask(want), _inverse_form(form))
    root = (*pair, FORM_231)

    def half(mask: int, half_form: str | None) -> int:
        return sum(1 for _ in star_walk(n, root, half_form, _patterns(mask)))

    count = half(want, form)
    return 2 * count if mirror == (want, form) else count + half(*mirror)


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


def avoidance_profile(n: int, pair: tuple[int, int]) -> list[list[int]]:
    """The 3-cycle-only permutations of [3n] whose root cycle uses the
    partners ``pair`` (see :func:`star_pairs`), histogrammed by (form class,
    avoidance mask) from one walk; the pairs' tables sum to the whole.

    Returns a 3 x 64 table: row 0 counts permutations with mixed cycle forms,
    row 1 all-312, row 2 all-231; column ``mask`` has bit i set when the
    permutation avoids ``PROFILE_PATTERNS[i]``.  Any single-pattern-set query
    over length-3 patterns is a sum of cells of this table.

    The walk (``star_walk`` unpruned) carries the mask of the patterns the
    placed entries contain and tests each node only for the patterns not yet
    in it, so a member's column is known once its last cycle is placed, with
    no scan of the finished permutation.  A subtree whose placed entries
    already contain all six patterns is not walked: all of its completions
    land in column 0.  :func:`completion_rows` splits a yielded node over the
    rows; a member is the node with no cycle left.

    Only the 1 -> b -> c root is walked.  The inverses of those members are
    the members with root 1 -> c -> b: inversion swaps rows 1 and 2 and, in
    each column, the 231 and 312 bits (:func:`inverse_mask`), so the table
    adds that relabelled copy of the walked half.
    """
    half = [[0] * 64 for _ in range(3)]
    # rows[left][n231]: completion_rows of a yielded node
    rows = [
        [completion_rows(n231, n - left, left) for n231 in range(n - left + 1)]
        for left in range(n + 1)
    ]
    for _, n231, contained, left in star_walk(
        n, (*pair, FORM_231), None, PROFILE_PATTERNS, False
    ):
        col = 63 ^ contained
        mixed, all312, all231 = rows[left][n231]
        half[0][col] += mixed
        half[1][col] += all312
        half[2][col] += all231
    return [
        [cells[col] + mirror[inverse_mask(col)] for col in range(64)]
        for cells, mirror in zip(half, (half[0], half[2], half[1]))
    ]


_Z, _X, _Y = b"zxy"  # the staircase scan's slot codes


def is_y_slot(x: int, y: int, z_at_partner: int) -> bool:
    """The greedy rule at a slot outside the staircase set, after ``x`` x's
    and ``y`` y's: the slot is y exactly when an x waits for its y (x > y)
    and ``z_at_partner``, the number of z's before the earliest waiting x,
    equals x; otherwise it is x.

    >>> is_y_slot(1, 0, 1), is_y_slot(1, 0, 2), is_y_slot(1, 1, 1)
    (True, False, False)
    """
    return x > y and z_at_partner == x


def tset_scan(t: Sequence[int]) -> tuple[bytearray, tuple[int, ...]]:
    """The staircase scan: the greedy rule that turns a staircase set ``t``
    into its z/x/y word.  A slot in ``t`` is z; scanning the other slots left
    to right, a slot becomes x or y by :func:`is_y_slot`: x while the x and y
    counts are tied, and otherwise y exactly when the next-needed y's partner
    x was preceded by as many z's as there are x's so far.

    Returns ``(codes, cuts)``: the letter of each slot as an ASCII code, and
    the balanced-prefix cuts, the indices i, increasing, whose prefix ending
    at the i-th y holds exactly i x's.  The cuts end the word's balanced
    segments, so the last is n, and their number is the balanced-prefix
    statistic h.  ``t`` is assumed valid (strictly increasing, t[i] <= 3i - 2).

    >>> codes, cuts = tset_scan((1, 3))
    >>> codes.decode(), cuts
    ('zxzyxy', (1, 2))
    """
    codes = bytearray(3 * len(t))  # 0 until the scan reaches the slot
    for v in t:
        codes[v - 1] = _Z
    z_at_x = [0] * len(t)  # z_at_x[i]: the z's before the (i+1)-th x
    cuts = []
    x = y = z = 0
    for pos, code in enumerate(codes):
        if code:
            z += 1
        elif is_y_slot(x, y, z_at_x[y]):  # y < len(t) at any slot outside t
            codes[pos] = _Y
            y += 1
            if x == y:
                cuts.append(y)
        else:
            codes[pos] = _X
            z_at_x[x] = z
            x += 1
    return codes, tuple(cuts)


def h_of_tset(t: Sequence[int]) -> int:
    """The balanced-prefix statistic of a staircase set's word: the number
    of :func:`tset_scan`'s cuts."""
    return len(tset_scan(t)[1])
