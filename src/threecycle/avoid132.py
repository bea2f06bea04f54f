"""132-avoiding star permutations: the three-way value partition, the
associated Dyck word and its type, the Motzkin correspondence, the
Catalan-block construction of the all-312 subclass, and the resulting counts.

For a member whose cycles all realize 312, classify each value by its rank
inside its own cycle: T1 holds the cycle minima, T2 the middles, T3 the
maxima.  T1 is forced to be {1..n}, the word read off positions n+1..3n
(1 for a T1 entry, 2 for a T2 entry) is a Dyck word, and the T2 entries
increase left to right.  The type of the Dyck word records how its switch
indices are spaced; words of a type of length k are counted by the (k-1)-st
Motzkin number, and each word carries a product of Catalan numbers worth of
members, reconstructed here explicitly.  Summed over types, these give the
generating functions of :mod:`threecycle.series`, and the counts here read
their coefficients off those series.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, NamedTuple, Sequence

from threecycle import perm, series, words
from threecycle.errors import InternalInvariantError, MembershipError

_PATTERN_132: perm.Perm = (1, 3, 2)


class TPartition(NamedTuple):
    """Values split by in-cycle rank: minima, middles, maxima (each sorted)."""

    t1: tuple[int, ...]
    t2: tuple[int, ...]
    t3: tuple[int, ...]


def _require_all312_avoider(p: perm.Perm) -> perm.CycleDecomposition:
    decomp = perm.cycle_decomposition(p)
    if not decomp.three_cycle_only:
        raise MembershipError(f"not composed only of 3-cycles: {p}")
    assert decomp.forms is not None
    if any(f != perm.FORM_312 for f in decomp.forms):
        raise MembershipError(f"contains a 231-form cycle: {p}")
    if perm.contains_pattern(p, _PATTERN_132):
        raise MembershipError(f"contains the pattern 132: {p}")
    return decomp


def t_partition(p: perm.Perm) -> TPartition:
    """Rank-in-cycle partition of a 132-avoiding all-312 member."""
    decomp = _require_all312_avoider(p)
    t1, t2, t3 = [], [], []
    for cycle in decomp.cycles:
        lo, mid, hi = sorted(cycle)
        t1.append(lo)
        t2.append(mid)
        t3.append(hi)
    return TPartition(tuple(sorted(t1)), tuple(sorted(t2)), tuple(sorted(t3)))


def dyck_word_of(p: perm.Perm) -> str:
    """The {1,2} word read off the back two thirds of the permutation."""
    part = t_partition(p)
    n = len(p) // 3
    t1 = set(part.t1)
    t2 = set(part.t2)
    letters = []
    for v in p[n:]:
        if v in t1:
            letters.append("1")
        elif v in t2:
            letters.append("2")
        else:
            raise InternalInvariantError(
                f"cycle maximum {v} appears after position n in {p}"
            )
    word = "".join(letters)
    if not words.is_balanced(word, "1", "2"):
        raise InternalInvariantError(f"word of {p} is not balanced: {word}")
    return word


def _require_dyck(word: str) -> int:
    if not word or not words.is_balanced(word, "1", "2"):
        raise ValueError(f"not a Dyck word over 1/2: {word!r}")
    return len(word) // 2


def type_of(word: str) -> tuple[int, ...]:
    """The composition recording the gaps between switch indices of a Dyck
    word: index i is a switch when the i-th 2 is followed by 1 or the i-th 1
    is followed by 2.

    >>> type_of("111122122212")
    (2, 2, 1, 1)
    """
    n = _require_dyck(word)
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    twos = [i for i, ch in enumerate(word) if ch == "2"]
    switches = []
    for i in range(n):
        follows_one = twos[i] + 1 < 2 * n and word[twos[i] + 1] == "1"
        follows_two = ones[i] + 1 < 2 * n and word[ones[i] + 1] == "2"
        if follows_one or follows_two:
            switches.append(i + 1)
    parts = [switches[0]] + [
        switches[i] - switches[i - 1] for i in range(1, len(switches))
    ]
    return tuple(parts)


def motzkin_to_dyck11(mot: str) -> str:
    """The Dyck word of all-ones type matching a Motzkin word of length k-1.

    The word starts with 1; after the a-th 1 comes 1 exactly when letter a is
    U, after the b-th 2 comes 2 exactly when letter b is D, and the k-th 1 is
    followed by 2.

    >>> motzkin_to_dyck11("UDF")
    '11212212'
    """
    if not words.is_motzkin(mot):
        raise ValueError(f"not a Motzkin word over U/F/D: {mot!r}")
    k = len(mot) + 1
    out = ["1"]
    ones, twos = 1, 0
    while len(out) < 2 * k:
        if out[-1] == "1":
            nxt = "1" if ones < k and mot[ones - 1] == "U" else "2"
        else:
            nxt = "2" if twos < k and mot[twos - 1] == "D" else "1"
        out.append(nxt)
        if nxt == "1":
            ones += 1
        else:
            twos += 1
    word = "".join(out)
    if type_of(word) != (1,) * k:
        raise InternalInvariantError(f"reconstruction of {mot!r} gave {word}")
    return word


def dyck11_to_motzkin(word: str) -> str:
    """Inverse of :func:`motzkin_to_dyck11`; rejects words whose type is not
    all ones."""
    k = _require_dyck(word)
    if type_of(word) != (1,) * k:
        raise ValueError(f"type of {word!r} is not (1,...,1)")
    ones = [i for i, ch in enumerate(word) if ch == "1"]
    twos = [i for i, ch in enumerate(word) if ch == "2"]
    letters = []
    for i in range(k - 1):
        after_one = word[ones[i] + 1]
        after_two = word[twos[i] + 1]
        if after_one == "1" and after_two == "1":
            letters.append("U")
        elif after_one == "2" and after_two == "2":
            letters.append("D")
        else:
            letters.append("F")
    return "".join(letters)


def expand_type(word11: str, parts: Sequence[int]) -> str:
    """Replace the i-th 1 of an all-ones-type word by parts[i] ones and the
    i-th 2 by parts[i] twos."""
    k = _require_dyck(word11)
    parts = tuple(parts)
    if len(parts) != k:
        raise ValueError(
            f"type length {len(parts)} does not match word semilength {k}"
        )
    if type_of(word11) != (1,) * k:
        raise ValueError(f"type of {word11!r} is not (1,...,1)")
    out = []
    ones = twos = 0
    for ch in word11:
        if ch == "1":
            out.append("1" * parts[ones])
            ones += 1
        else:
            out.append("2" * parts[twos])
            twos += 1
    return "".join(out)


def contract_type(word: str) -> str:
    """Collapse each type-group of 1s (and of 2s) to a single letter; inverse
    of :func:`expand_type` for the word's own type.

    >>> contract_type("112211122122")
    '12112122'
    """
    parts = type_of(word)
    starts = {0}
    acc = 0
    for x in parts:
        acc += x
        starts.add(acc)
    out = []
    ones = twos = 0
    for ch in word:
        if ch == "1":
            if ones in starts:
                out.append("1")
            ones += 1
        else:
            if twos in starts:
                out.append("2")
            twos += 1
    return "".join(out)


def enumerate_dyck_of_type(parts: Sequence[int]) -> Iterator[str]:
    """All Dyck words of the given type, via the Motzkin correspondence; there
    are exactly M[k-1] of them for a type of length k."""
    parts = tuple(parts)
    if not parts or any(x < 1 for x in parts):
        raise ValueError(f"type must be a composition: {parts}")
    k = len(parts)
    for mot in words.motzkin_words(k - 1):
        yield expand_type(motzkin_to_dyck11(mot), parts)


@functools.lru_cache(maxsize=None)
def avoiders_of_132(k: int) -> tuple[perm.Perm, ...]:
    """All 132-avoiding permutations of [k], lexicographic; Catalan-many."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return tuple(
        p
        for p in itertools.permutations(range(1, k + 1))
        if not perm.contains_pattern(p, _PATTERN_132)
    )


def perm_from_dyck_word(word: str, fills: Sequence[perm.Perm]) -> perm.Perm:
    """Rebuild the unique all-312 132-avoider with the given Dyck word whose
    in-block patterns are the given 132-avoiding fills (one per type part,
    lengths matching the type).
    """
    parts = type_of(word)
    fills = [tuple(f) for f in fills]
    if len(fills) != len(parts):
        raise ValueError(f"need {len(parts)} fills for type {parts}, got {len(fills)}")
    for f, x in zip(fills, parts):
        perm.check_permutation(f)
        if len(f) != x:
            raise ValueError(f"fill {f} does not match type part {x}")
        if perm.contains_pattern(f, _PATTERN_132):
            raise ValueError(f"fill contains the pattern 132: {f}")
    n = len(word) // 2
    out = [0] * (3 * n)
    position_of = [0] * (3 * n + 1)

    def put(position: int, value: int) -> None:
        out[position - 1] = value
        position_of[value] = position

    ones = [i + 1 for i, ch in enumerate(word) if ch == "1"]
    twos = [i + 1 for i, ch in enumerate(word) if ch == "2"]
    # middle values n+u sit, in increasing order, at the positions n+v
    for value_offset, pos_offset in zip(ones, twos):
        put(n + pos_offset, n + value_offset)
    # cycle minima go on the 1-blocks, value ranges descending across blocks,
    # each block arranged order-isomorphically to its fill
    hi = n
    block_start = 0
    for x, fill in zip(parts, fills):
        block_positions = [n + u for u in ones[block_start : block_start + x]]
        values = list(range(hi - x + 1, hi + 1))
        for position, rank in zip(block_positions, fill):
            put(position, values[rank - 1])
        hi -= x
        block_start += x
    # the front third closes each cycle: the minimum a sitting at position b
    # forces the entry at position a to be the position of value b
    for a in range(1, n + 1):
        b = position_of[a]
        put(a, position_of[b])
    return perm.check_permutation(out)


def enumerate_all312(n: int) -> Iterator[perm.Perm]:
    """All 132-avoiding star permutations whose cycles realize 312, grouped by
    Dyck word, fills iterated lexicographically block by block."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for word in words.dyck_words(n, "1", "2"):
        parts = type_of(word)
        for fills in itertools.product(*(avoiders_of_132(x) for x in parts)):
            yield perm_from_dyck_word(word, fills)


def _coefficients(
    make: Callable[[int], series.IntegerSeries], n: int | range
) -> int | list[int]:
    """Coefficient n of the series ``make(n)``; for an increasing range of n,
    the coefficient of every n in it, all read off one series of the
    range's largest order."""
    ns = n if isinstance(n, range) else range(n, n + 1)
    if not ns or ns.start < 1 or ns.step < 1:
        raise ValueError("n must be >= 1, or an increasing range of such n")
    f = make(ns[-1])
    return [f.coefficient(k) for k in ns] if isinstance(n, range) else f.coefficient(n)


def count_all312(n: int | range) -> int | list[int]:
    """Size of the all-312 subclass: the coefficient of x^n in
    :func:`series.series_A`, A = (c - 1) * m(c - 1).  Expanded, that is the
    sum over compositions (x1..xk) of n of M[k-1] * prod C[xi]: M[k-1] Dyck
    words per type of length k, each carrying prod C[xi] members.  As the
    Motzkin series satisfies m = 1 + x m + x^2 m^2, A = u (1 + A + A^2) with
    u = c - 1, and the series is built from that equation.  Given an
    increasing range of n, the sizes for every n in it, off one series.
    Refused above ``series.ORDER_LIMIT``.

    >>> [count_all312(n) for n in range(1, 5)]
    [1, 3, 11, 44]
    >>> count_all312(range(1, 5))
    [1, 3, 11, 44]
    """
    return _coefficients(series.series_A, n)


def count_132(n: int | range) -> int | list[int]:
    """Number of 132-avoiding star permutations: the coefficient of x^n in
    :func:`series.series_B`, 2A / (1 - A).  Expanded, that is twice the sum
    over compositions (x1..xk) of n of prod a[xi], where a[m] is the all-312
    subclass count.  Given an increasing range of n, the numbers for every n
    in it, off one series.  Refused above ``series.ORDER_LIMIT``.

    >>> [count_132(n) for n in range(1, 6)]
    [2, 8, 36, 170, 824]
    >>> count_132(range(3, 6))
    [36, 170, 824]
    """
    return _coefficients(series.series_B, n)
