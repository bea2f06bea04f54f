"""The search layer: pattern containment (``contained_patterns``), the star
walk under every count, enumeration and profile (``star_walk``), and the
staircase scan behind every z/x/y word and its balanced-prefix cuts
(``tset_scan``), with its greedy rule (``is_y_slot``), which the staircase
automaton of :mod:`threecycle.avoid321` steps slot by slot.

Each rule of the walk is stated once, in the docstring of the function that
applies it: the root, placed before the first frame with its form bit as
its mask, the one child rule of every later frame (form bit, dead cells,
scan), and the last frame, which builds no cells and checks its children
on its parent's (``star_walk``, which calls a visitor for each member); the
dead cells themselves (``dead_cells``), the pairs a frame draws from them
(``_live_pairs``), the one rule for halving a query that is its own
inverse image (``self_inverse``, applied alike by ``count_avoiders`` and
``star_members``, with or without patterns), and the profile's orbit rule
(``avoidance_profile``).  Every walk covers one root partner pair
(``star_pairs``), the oracle's unit of work.

The six length-3 patterns live in one table, ``PROFILE_PATTERNS``, whose
order is every pattern mask's bit order (``pattern_mask``); their names are
stated once, in ``PATTERN_NAMES`` (read back by ``pattern_named``), from
which the CLI and ``oracle.query`` take them.  Which patterns are reverses
of which is stated once too, in the reversal table ``_RULES``, from which
both the scans and the dead-cell sweeps are read.  The form filters are
listed once, in ``FORMS``, and the walk's order of the two forms, with each
form's profile row, in ``FORM_ROWS``.

Conventions: permutations are 1-based one-line sequences; a 3-cycle placed as
a -> b -> c with a < b < c realizes the pattern 231, while a -> c -> b
realizes 312.  The walk names each orientation by its form, ``FORM_231`` or
``FORM_312``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Sequence

FORM_231 = "231"
FORM_312 = "312"
#: every form filter: None allows both orientations
FORMS = (None, FORM_312, FORM_231)
#: the cycle forms in the walk's order, a -> b -> c before a -> c -> b,
#: each with its row of a profile table (row 0 counts mixed forms)
FORM_ROWS = {FORM_231: 2, FORM_312: 1}

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

#: pattern -> name, e.g. (2, 3, 1) -> "231", in PROFILE_PATTERNS order
PATTERN_NAMES = {p: "".join(map(str, p)) for p in PROFILE_PATTERNS}
_NAMED_PATTERNS = {name: p for p, name in PATTERN_NAMES.items()}

_PATTERN_BITS = {p: 1 << i for i, p in enumerate(PROFILE_PATTERNS)}


def pattern_named(name: str) -> tuple[int, ...]:
    """The pattern called ``name``, one of the six names of
    ``PATTERN_NAMES``; any other name raises ValueError.

    >>> pattern_named("231")
    (2, 3, 1)
    """
    pattern = _NAMED_PATTERNS.get(name) if isinstance(name, str) else None
    if pattern is None:
        names = ", ".join(PATTERN_NAMES.values())
        raise ValueError(f"patterns must have length 3, one of {names}: {name!r}")
    return pattern


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
    found = 0
    while wanted:
        bit = wanted & -wanted
        wanted ^= bit
        scan, _, backwards = _RULES[bit]
        if scan(reversed(values) if backwards else values, bits):
            found |= bit
    return found


def _dead_123(values: Sequence[int], free: int) -> list[int]:
    # v last (x < y < v): above an ascent's top; first (v < x < y): below an
    # ascent's bottom; middle (x < v < y): between the least value left and
    # the greatest right.  Sets above a value are negative ints.
    dead = [0] * len(values)
    lows = dead[:]
    low = last = 0  # low: the least value so far, as a bit
    for p, v in enumerate(values):
        if v:
            bit = 1 << v
            if low and low < bit:
                last |= -(bit << 1)
            else:
                low = bit
        else:
            dead[p] = last
            lows[p] = low
    high = first = 0  # high: the greatest value so far, as a bit
    for p in range(len(values) - 1, -1, -1):
        v = values[p]
        if v:
            bit = 1 << v
            if bit < high:
                first |= bit - 1
            else:
                high = bit
        else:
            low = lows[p]
            middle = high - (low << 1) if 0 < low < high else 0
            dead[p] = (dead[p] | first | middle) & free
    return dead


def _dead_132(values: Sequence[int], free: int) -> list[int]:
    # v last (x < v < y): between the least value left of an entry y and y;
    # first (v < y < x): below the greatest y right of x with y < x; middle
    # (x < y < v): above the least value right that exceeds one left
    dead = [0] * len(values)
    lows = dead[:]
    low = last = 0
    for p, v in enumerate(values):
        if v:
            bit = 1 << v
            if low and low < bit:
                last |= bit - (low << 1)
            else:
                low = bit
        else:
            dead[p] = last
            lows[p] = low
    right = first = 0
    for p in range(len(values) - 1, -1, -1):
        v = values[p]
        if v:
            bit = 1 << v
            ys = right & bit - 1
            if ys:
                first |= (1 << ys.bit_length() - 1) - 1
            right |= bit
        else:
            ys = right & -(lows[p] << 1)
            middle = -((ys & -ys) << 1) if ys else 0
            dead[p] = (dead[p] | first | middle) & free
    return dead


def _dead_213(values: Sequence[int], free: int) -> list[int]:
    # v last (y < x < v): above the least x left of an entry y with x > y;
    # first (x < v < y): between x and the greatest value right of it; middle
    # (v < x < y): below the greatest value left that is below one right
    dead = [0] * len(values)
    lefts = dead[:]
    left = last = 0
    for p, v in enumerate(values):
        if v:
            xs = left >> v + 1
            if xs:
                last |= -((xs & -xs) << v + 2)
            left |= 1 << v
        else:
            dead[p] = last
            lefts[p] = left
    high = first = 0
    for p in range(len(values) - 1, -1, -1):
        v = values[p]
        if v:
            bit = 1 << v
            if bit < high:
                first |= high - (bit << 1)
            else:
                high = bit
        else:
            xs = lefts[p] & high - 1 if high else 0
            middle = (1 << xs.bit_length() - 1) - 1 if xs else 0
            dead[p] = (dead[p] | first | middle) & free
    return dead


#: The reversal table, bit -> (scan, sweep, reversed?): the rules of 123,
#: 132 and 213, and over the reversed values, of their reverses 321, 231 and
#: 312.  A pattern is contained in the values exactly when its reverse is in
#: the reversed values, and its dead cells are its reverse's cells in the
#: reversed values, read back to front.
_RULES = {
    _PATTERN_BITS[q]: (scan, sweep, q != p)
    for p, scan, sweep in (
        ((1, 2, 3), _has_123, _dead_123),
        ((1, 3, 2), _has_132, _dead_132),
        ((2, 1, 3), _has_213, _dead_213),
    )
    for q in (p, p[::-1])
}


def dead_cells(values: Sequence[int], free: int, wanted: int) -> list[int]:
    """The cells where one more entry completes a ``wanted`` pattern with two
    entries of ``values``: bit ``v`` of ``dead[p]`` is set, for an unplaced
    position ``p`` (a 0 entry) and a value ``v`` in ``free``, exactly when
    some two nonzero entries and ``v`` at ``p`` realize a wanted pattern.
    ``values`` are as for :func:`contained_patterns`, and ``free`` has no
    bit of a value in them.

    A permutation that puts ``v`` at ``p`` below ``values`` contains the
    pattern, so a walk rules out such a child before placing it.  Each
    pattern takes two sweeps, one from each end: the new entry is the
    pattern's first entry, its middle or its last, and its rank there says
    whether its value lies above, below or between those of the two placed
    entries, which the sweeps keep as bit sets.

    >>> dead_cells((3, 0, 0, 1), 0b10100, 32)  # 321: 3 2 1, not 3 4 1
    [0, 4, 4, 0]
    >>> dead_cells((1, 0, 3, 0), 0b10100, 2)  # 132: 1 4 3 and 1 3 2
    [0, 16, 0, 4]
    """
    dead = None
    while wanted:
        bit = wanted & -wanted
        wanted ^= bit
        _, sweep, backwards = _RULES[bit]
        cells = sweep(values[::-1], free)[::-1] if backwards else sweep(values, free)
        dead = cells if dead is None else [d | c for d, c in zip(dead, cells)]
    return [0] * len(values) if dead is None else dead


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


#: column -> the column of its inverses, for relabelling a profile half
_INVERSE_COLUMNS = tuple(map(inverse_mask, range(64)))

#: the pattern bit of each cycle form: a -> b -> c with a < b < c is itself
#: an occurrence of 231, and a -> c -> b of 312
_FORM_BITS = {FORM_231: _PATTERN_BITS[2, 3, 1], FORM_312: _PATTERN_BITS[3, 1, 2]}


def _check_form(form: str | None) -> None:
    """Refuse a form filter not in ``FORMS`` with ValueError."""
    if form not in FORMS:
        raise ValueError(f"unknown form filter {form!r}: form must be one of {FORMS}")


def _live_pairs(a: int, free: list[int], dead: list[int]) -> list[tuple[int, int]]:
    """The pairs ``(b, c)`` of ``free``, in lexicographic order, that
    :func:`star_walk` places with ``a`` in a frame with one group of dead
    cells: every pair less those whose two children both have an entry on a
    dead cell.  a -> b -> c puts b at a, c at b and a at c, and a -> c -> b
    puts c at a and a at b (and b at c, which the walk tests with each
    child's other entries)."""
    top = 0
    for p in free:
        top |= 1 << p
    first = top & ~(dead[a] >> 1)  # b of a -> b -> c, c of a -> c -> b
    back = 0  # c of a -> b -> c, b of a -> c -> b
    for p in free:
        if not dead[p] & 2 << a:
            back |= 1 << p
    pairs = []
    for b in free:
        top ^= 1 << b
        ok = top & ~(dead[b] >> 1) & back if first >> b & 1 else 0
        if back >> b & 1:
            ok |= top & first
        while ok:
            low = ok & -ok
            ok ^= low
            pairs.append((b, low.bit_length() - 1))
    return pairs


def star_walk(
    n: int,
    root: tuple[int, int, str] | tuple[int, int, str, Sequence[tuple[int, int]]],
    visit: Callable[[list[int], int], object],
    form: str | None = None,
    patterns: Sequence[Sequence[int]] = (),
    prune: bool = True,
) -> None:
    """Depth-first walk over the permutations of [3n] built only from
    3-cycles whose first cycles are ``root``, tracking which of ``patterns``
    their entries contain, that calls ``visit(buffer, mask)`` for each
    member: the one-line buffer (a list reused between calls: copy it to
    keep it) and the mask.

    ``root = (b, c, root_form)``, with ``(b, c)`` in :func:`star_pairs` and
    ``root_form`` "231" or "312", is the cycle 1 -> b -> c or 1 -> c -> b.
    It may go on with a list of distinct partner pairs ``(x, y)`` for the top
    element 3n, each with 1 < x < y < 3n, x and y not b or c, when c < 3n: the
    first frame places 3n -> x -> y, the cycle x -> y -> 3n (231), and
    3n -> y -> x, the cycle x -> 3n -> y (312), for each pair in the order
    given.  Anything else, and any root at n = 0, raises ValueError.  The
    walks under all roots ``(b, c, root_form)``, taken pair by pair with 231
    before 312, partition the star set at ``n``; and given the parts of any
    partition of the pairs the top element can take, a root's walks
    partition its plain walk.  The root is placed before the first frame,
    and every later cycle is one frame.  Every frame but the top pairs'
    places the smallest unplaced element ``a`` with each pair of partners
    from its free list, the unplaced elements above ``a``, in lexicographic
    order, and each pair as a -> b -> c before a -> c -> b, so the order is
    reproducible.  ``form`` ("231" or "312") allows only one orientation,
    the root's included.

    Each node carries the mask of the patterns the entries placed so far
    contain: bit i stands for ``PROFILE_PATTERNS[i]``, whatever the order of
    ``patterns`` (each a permutation of 1..3; anything else raises
    ValueError before the walk starts).  A placed entry never changes, so an
    occurrence among the placed entries is one in every permutation below:
    the mask only grows.  The root's mask is its form bit (231 for
    1 -> b -> c, 312 for 1 -> c -> b), with no scan: a lone 3-cycle contains
    only its form's pattern.  Every frame's child then takes one rule.  Its
    cycle's form bit joins the mask first; a child with an entry on one of
    the frame's :func:`dead_cells` contains that cell's pattern; and its one
    :func:`contained_patterns` call asks only for the patterns still open.
    A pruned walk marks the cells of all its open patterns at once, since
    any one prunes; an unpruned walk marks each open pattern's cells apart,
    and a child on one takes that pattern's bit and is not asked for it.  A
    frame with one group of cells draws its pairs from :func:`_live_pairs`.
    A pattern whose cells fill an unplaced position's row is in every
    completion, so its bit joins the frame's mask, and a frame that this
    prunes or saturates places no child.

    The last frame, on the three elements left, builds no cells of its
    own: it checks its children on its parent frame's cells, which are
    passed down (the root passes none), and its one pair is the two
    unplaced elements above the smallest, unless it is the top pairs'
    frame (at n = 2).  Those cells come from the entries placed before the
    parent, with the last cycle's values still free, so a hit is a pattern
    the member contains.  The form bits and cells set only the bits of
    patterns that every member below contains, and drop only children that
    a walk without them would prune or saturate, or whose every completion
    it would, so the visits, their order and their masks are the same.

    With ``prune`` (the default) the patterns are avoided: a subtree is
    dropped at its first contained pattern, so the walk visits exactly the
    members avoiding every pattern.  Without it a subtree is dropped once
    its mask holds every pattern (``patterns`` not empty): all of its
    completions contain them all, so the walk visits exactly the members
    that do not contain every pattern, and every member when ``patterns``
    is empty.
    """
    _check_form(form)
    forms = tuple(FORM_ROWS) if form is None else (form,)
    want = pattern_mask(patterns)
    # a child's mask holds only wanted bits, so it stops the child at any bit
    # when pruning, else at all of them (never, with no patterns)
    stop = 1 if prune else want or 64
    m = 3 * n
    if root is None or len(root) not in (3, 4):
        raise ValueError(f"invalid root {root} for n={n}")
    b, c, root_form, *more = root  # more: [] or [the top pairs]
    if not (
        1 < b < c <= m
        and root_form in FORM_ROWS
        and all(
            c < m and 1 < x < y < m and not {x, y} & {b, c}
            for tops in more
            for x, y in tops
        )
        and all(len({(x, y) for x, y in tops}) == len(tops) for tops in more)
    ):
        raise ValueError(f"invalid root {root} for n={n}")
    mask = _FORM_BITS[root_form] & want
    if root_form not in forms or mask >= stop:
        return
    perm = [0] * m  # perm[i - 1] is the image of i; 0 while i is unplaced
    # 1 -> b -> c puts b at 1, c at b and 1 at c; 1 -> c -> b puts c at 1,
    # 1 at b and b at c
    rising = root_form == FORM_231
    perm[0], perm[b - 1], perm[c - 1] = (b, c, 1) if rising else (c, 1, b)
    if n == 1:
        visit(perm, mask)
        return
    all_values = (2 << m) - 2  # bit v for each value v
    # the top pairs, 0-based like perm's indices, or None
    tops = [(x - 1, y - 1) for x, y in more[0]] if more else None

    def frame(
        depth: int,
        mask: int,
        placed: int,
        groups: list[tuple[int, list[int]]],
    ) -> None:
        # place the top element or the smallest unplaced one, a, with each
        # pair and form as cycle number ``depth``, then clear it; the placed
        # values are the placed positions, so ``placed`` (bit v for value v)
        # grows by the cycle's three.  ``groups`` are the parent's
        # (pattern bits, dead cells), which only the last frame reads
        last = depth == n
        if depth == 2 and tops is not None:
            a, pairs = m - 1, tops
        else:
            a, pairs = perm.index(0), None
        if not last:
            groups = []
            wanted = want & ~mask
            free_values = all_values & ~placed
            while wanted:
                group = wanted if prune else wanted & -wanted
                wanted ^= group
                dead = dead_cells(perm, free_values, group)
                if free_values in dead:
                    mask |= group
                else:
                    groups.append((group, dead))
        elif pairs is None:  # the two unplaced elements above a
            v = perm.index(0, a + 1)
            pairs = [(v, perm.index(0, v + 1))]
        # a mask or form bit that prunes or saturates places no child
        kept = []
        for cycle_form in forms:
            seen = mask | _FORM_BITS[cycle_form] & want
            if seen < stop:
                kept.append((cycle_form == FORM_231, seen, want & ~seen))
        if not kept:
            return
        if pairs is None:
            free = [i for i in range(a + 1, m) if not perm[i]]
            if len(groups) == 1:  # an entry on a dead cell settles the child
                pairs = _live_pairs(a, free, groups[0][1])
            else:
                pairs = itertools.combinations(free, 2)
        for b, c in pairs:
            bits = placed | 2 << a | 2 << b | 2 << c
            for rising, seen, ask in kept:
                # the values at a, b and c, less one: a -> b -> c puts b at a,
                # c at b and a at c
                x, y, z = (b, c, a) if rising else (c, a, b)
                for group, dead in groups:
                    if dead[a] & 2 << x or dead[b] & 2 << y or dead[c] & 2 << z:
                        seen |= group
                        ask &= ~group
                if seen >= stop:
                    continue
                perm[a], perm[b], perm[c] = x + 1, y + 1, z + 1
                # every child left makes one scan, for the patterns still open
                if ask:
                    seen |= contained_patterns(perm, bits, ask)
                    if seen >= stop:
                        continue
                if last:
                    visit(perm, seen)
                else:
                    frame(depth + 1, seen, bits, groups)
            perm[a] = perm[b] = perm[c] = 0

    try:
        frame(2, mask, 1 << 1 | 1 << b | 1 << c, [])
    finally:
        # frame refers to itself through its closure: break that cycle, so
        # that each walk's state is freed when it ends, not by the cycle
        # collector (a count or an enumeration makes a walk per root)
        del frame


def self_inverse(patterns: Sequence[Sequence[int]], form: str | None) -> bool:
    """Whether the query is its own inverse image: no form, and 231 and 312
    both avoided or neither.  Inversion maps a member with root 1 -> b -> c
    onto one with root 1 -> c -> b, the cycle forms onto each other, and a
    member avoiding a pattern onto one avoiding its inverse
    (:func:`inverse_mask`), so such a query's members with one root are the
    inverses of those with the other.  It is the one halving rule: both
    :func:`count_avoiders` and :func:`star_members` walk only the root
    1 -> b -> c of such a query, the whole star set (no patterns) included.
    A bad form or pattern raises ValueError.

    >>> self_inverse([(1, 3, 2)], None), self_inverse([(2, 3, 1)], None)
    (True, False)
    >>> self_inverse([(2, 3, 1), (3, 1, 2)], None), self_inverse([], "312")
    (True, False)
    """
    _check_form(form)
    want = pattern_mask(patterns)
    return form is None and inverse_mask(want) == want


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

    A query that is its own inverse image (:func:`self_inverse`) walks only
    the root 1 -> b -> c and doubles its count; any other walks both roots.
    """
    halved = self_inverse(patterns, form)
    count = 0

    def tally(_buffer: list[int], _mask: int) -> None:
        nonlocal count
        count += 1

    for f in (FORM_231,) if halved else (FORM_231, FORM_312):
        star_walk(n, (*pair, f), tally, form, patterns)
    return 2 * count if halved else count


def _walk_key(p: tuple[int, ...]) -> list[int]:
    # the walk's order as a sort key: the cycles taken by smallest element
    # a, each written (b, c, 0) for a -> b -> c and (b, c, 1) for
    # a -> c -> b, with b < c; star_walk yields in increasing key
    key: list[int] = []
    done = 0  # bit v for each partner v seen so far
    for a, b in enumerate(p, 1):
        if not done >> a & 1:
            c = p[b - 1]
            done |= 1 << b | 1 << c
            key += (b, c, 0) if b < c else (c, b, 1)
    return key


def inverse(p: Sequence[int]) -> tuple[int, ...]:
    """The algebraic inverse.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def star_members(
    n: int, form: str | None = None, patterns: Sequence[Sequence[int]] = ()
) -> Iterator[tuple[int, ...]]:
    """The members of the star set at ``n`` that avoid ``patterns`` under
    ``form``, as tuples, each once, in the walk's order: root partner pair
    by pair (:func:`star_pairs`), each pair's 1 -> b -> c members before its
    1 -> c -> b ones.  ``form`` and ``patterns`` cut the stream without
    reordering it; ``n = 0`` yields nothing.

    A query that is its own inverse image (:func:`self_inverse`) walks only
    the root 1 -> b -> c, as a count does: its members come in walk order,
    and then their inverses, the members with root 1 -> c -> b, sorted into
    walk order.  Any other query walks both roots.  The walk's visitor
    collects one pair's members, which are yielded before the next pair is
    walked, so only one pair's members (and their inverses) are held at a
    time.  A bad form or pattern is refused before any pair, at n = 0 too.

    >>> list(star_members(1)), list(star_members(1, patterns=[(2, 3, 1)]))
    ([(2, 3, 1), (3, 1, 2)], [(3, 1, 2)])
    """
    halved = self_inverse(patterns, form)
    roots = (FORM_231,) if halved else (FORM_231, FORM_312)
    members: list[tuple[int, ...]] = []

    def keep(buffer: list[int], _mask: int) -> None:
        members.append(tuple(buffer))

    for b, c in star_pairs(n):
        for root_form in roots:
            star_walk(n, (b, c, root_form), keep, form, patterns)
        yield from members
        if halved:
            yield from sorted(map(inverse, members), key=_walk_key)
        members.clear()


def triple_splits(k: int) -> int:
    """The ways to split 3k elements into k unordered triples,
    (3k)! / (k! 6^k); each triple closes as a 3-cycle in two orientations,
    so ``triple_splits(k) * 2**k`` is the star-set size for ``k``.

    >>> [triple_splits(k) for k in range(4)]
    [1, 1, 10, 280]
    """
    return math.factorial(3 * k) // (math.factorial(k) * 6**k)


#: column -> its column under reverse-complement after inverse, which swaps
#: 132 and 213 and keeps the forms, and under reverse-complement, which also
#: swaps 231 and 312 and with them the forms
_RC_INVERSE_COLUMNS = tuple(c & ~6 | c >> 1 & 2 | c << 1 & 4 for c in range(64))
_RC_COLUMNS = tuple(_INVERSE_COLUMNS[c] for c in _RC_INVERSE_COLUMNS)


def avoidance_profile(n: int, pair: tuple[int, int]) -> list[list[int]]:
    """One root partner pair's part (see :func:`star_pairs`) of the
    histogram of the 3-cycle-only permutations of [3n] by (form class,
    avoidance mask).  The pairs' parts sum to the whole table but for column
    0, which every part leaves at 0 and the oracle fills on the sum.

    Returns a 3 x 64 table: row 0 counts permutations with mixed cycle forms,
    row 1 all-312, row 2 all-231; column ``mask`` has bit i set when the
    permutation avoids ``PROFILE_PATTERNS[i]``.  Any single-pattern-set query
    over length-3 patterns is a sum of cells of this table.

    The walk (``star_walk`` unpruned) carries the mask of the patterns the
    placed entries contain and tests each node only for the patterns not yet
    in it, so a member's column is known once its last cycle is placed, with
    no scan of the finished permutation.  A subtree whose placed entries
    already contain all six patterns is not walked: its members are column
    0.  A walked member is all-231 when each cycle a -> b -> c has b < c,
    that is when 2n of its entries exceed their positions (a 312 cycle has
    one such entry, a 231 cycle two).

    Only members with a root 1 -> b -> c are walked, the half W.  Their
    inverses are the members with root 1 -> c -> b: inversion swaps rows 1
    and 2 and, in each column, the 231 and 312 bits (:func:`inverse_mask`),
    so the table adds that relabelled copy of the walked part.

    Within W the walk takes one member of each orbit of an involution tau.
    Let T = {x, y, N}, x < y, be the cycle of the top element N = 3n.  tau
    is reverse-complement after inverse when T is 231, and
    reverse-complement when T is 312.  Either maps T onto the root
    1 -> N+1-y -> N+1-x, so the member's key (N+1-y, N+1-x), or (N+1-b, N)
    when the root holds N, is the root pair of its image; and it maps the
    root onto a top cycle of T's form, so tau(tau(p)) = p.  Both maps keep
    the row; the column relabels by swapping the 132 and 213 bits, and under
    reverse-complement the 231 and 312 bits too.  The pair's one walk places
    the root and then T from the top pairs (x, y) whose key is not below the
    pair: members with a lower key are counted as images by that lower
    pair.  When the root holds N it is T, and the walk is skipped if its key
    is below the pair.  A yielded member reads T off its buffer, N -> u -> v
    with T 231 exactly when v > u.  A member whose key is the pair counts
    once, since its image is walked here too; any other counts twice, the
    second time in its image's column.
    """
    m = 3 * n
    b, c = pair = tuple(pair)
    if not 1 < b < c <= m:
        raise ValueError(f"invalid pair {pair} for n={n}")
    half = [[0] * 64 for _ in range(3)]
    if c < m:
        rest = [v for v in range(2, m) if v != b and v != c]
        tops = [
            (x, y)
            for x, y in itertools.combinations(rest, 2)
            if (m + 1 - y, m + 1 - x) >= pair
        ]
        walks = [(b, c, FORM_231, tops)] if tops else []
    else:
        walks = [(b, c, FORM_231)] if (m + 1 - b, m) >= pair else []
    all_231 = half[FORM_ROWS[FORM_231]]

    def tally(vals: list[int], contained: int) -> None:
        rises = sum(i < v for i, v in enumerate(vals, 1))
        row = all_231 if rises == 2 * n else half[0]
        col = 63 ^ contained
        row[col] += 1
        u = vals[-1]  # T is N -> u -> v
        v = vals[u - 1]
        if (m + 1 - max(u, v), m + 1 - min(u, v)) != pair:
            relabel = _RC_INVERSE_COLUMNS if v > u else _RC_COLUMNS
            row[relabel[col]] += 1

    for root in walks:
        star_walk(n, root, tally, None, PROFILE_PATTERNS, False)
    return [
        [cell + mirror[col] for cell, col in zip(cells, _INVERSE_COLUMNS)]
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
