"""The 231-avoiding star permutations and their bijection with E/L/R words.

A 231-avoiding permutation built from n 3-cycles grows to one built from
n+1 3-cycles in exactly three ways, named by where the new cycle lands
relative to the cycle of the current maximum:

* E appends the three new entries at the end;
* L puts them immediately before position a, immediately before position b,
  and at the end;
* R puts them immediately before position a, immediately after position b,
  and at the end;

where a < b are the two non-final positions of the cycle containing the
maximum (the third is always the last position).  The new entries always
descend-then-rise in the relative order 312; their values are forced by the
slots (E: the three new maxima; L: {a, b+1, new maximum}; R: {a, b+2, new
maximum}), and the old entries are re-ranked order-preservingly around them.
Iterating the three operations from the seed 312 reaches every member exactly
once, which is what encode/decode exploit.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from threecycle import perm
from threecycle.errors import (
    MAX_DIGITS,
    InternalInvariantError,
    MembershipError,
    ResourceLimitError,
)

LETTERS = "ELR"

#: The largest n whose count 3^(n-1) has at most ``MAX_DIGITS`` digits: the
#: largest n with (n-1) log10(3) < MAX_DIGITS.
COUNT_LIMIT = math.ceil(MAX_DIGITS / math.log10(3))

_SEED: perm.Perm = (3, 1, 2)


def _require_member(p: perm.Perm) -> None:
    m = len(p)
    if m == 0 or m % 3:
        raise MembershipError(f"length {m} is not a multiple of 3")
    if not perm.is_three_cycle_only(p):
        raise MembershipError(f"not composed only of 3-cycles: {p}")
    if perm.contains_pattern(p, (2, 3, 1)):
        raise MembershipError(f"contains the pattern 231: {p}")


def anchor(p: perm.Perm, validate: bool = True) -> tuple[int, int]:
    """Positions (a, b), a < b, of the two non-final elements of the cycle
    containing the maximum of a 231-avoiding star permutation.

    The maximum m sits at position a, value a sits at position b, and value b
    sits at position m.
    """
    if validate:
        _require_member(p)
    m = len(p)
    a = p.index(m) + 1
    b = p[m - 1]
    if not (a < b < m) or p[b - 1] != a:
        raise InternalInvariantError(
            f"anchor structure violated for {p}: a={a}, b={b}"
        )
    return a, b


def _insert(p: perm.Perm, letter: str, validate: bool = True) -> perm.Perm:
    if letter not in LETTERS:
        raise ValueError(f"letter must be one of {LETTERS!r}: {letter!r}")
    if validate:
        _require_member(p)
    m = len(p)
    a, b = anchor(p, validate=False)
    if letter == "E":
        new_values = {m + 1, m + 2, m + 3}
    elif letter == "L":
        new_values = {a, b + 1, m + 3}
    else:
        new_values = {a, b + 2, m + 3}
    lo, mid, hi = sorted(new_values)
    # order-preserving re-rank of the old entries around the new values
    fresh = [v for v in range(1, m + 4) if v not in new_values]
    out: list[int] = []
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


def insert_E(p: perm.Perm) -> perm.Perm:
    """Append a new maximal 3-cycle at the end."""
    return _insert(p, "E")


def insert_L(p: perm.Perm) -> perm.Perm:
    """Insert the new cycle left of both anchor positions."""
    return _insert(p, "L")


def insert_R(p: perm.Perm) -> perm.Perm:
    """Insert the new cycle left of the first anchor position and right of
    the second."""
    return _insert(p, "R")


def decode_step(p: perm.Perm, validate: bool = True) -> tuple[perm.Perm, str]:
    """Undo the unique insertion that produced ``p``; returns the smaller
    member and the letter.  Requires ``len(p) >= 6``."""
    m = len(p)
    if m < 6 or m % 3:
        raise MembershipError(f"length {m} leaves nothing to decode")
    if validate:
        _require_member(p)
    a, b = anchor(p, validate=False)
    if b == m - 1:
        return p[:m - 3], "E"
    v = m - 1  # the second-largest value; its cycle tells L from R apart
    cycle_of_v = {v, p[v - 1], p[p[v - 1] - 1]}
    if cycle_of_v == {a + 1, b + 1, v}:
        letter = "L"
    elif cycle_of_v == {a + 1, b - 1, v}:
        letter = "R"
    else:
        raise InternalInvariantError(
            f"cycle of {v} matches neither insertion shape in {p}"
        )
    removed = (a, b, m)
    rank = {}
    shift = 0
    for value in range(1, m + 1):
        if value in removed:
            shift += 1
        else:
            rank[value] = value - shift
    tau = tuple(rank[value] for value in p if value not in removed)
    return tau, letter


def encode(word: str) -> perm.Perm:
    """Fold the letters of ``word`` over the seed 312; a word of length n-1
    yields the 231-avoiding member of size 3n it names."""
    bad = set(word) - set(LETTERS)
    if bad:
        raise ValueError(f"word letters must be in {LETTERS!r}: {sorted(bad)}")
    p = _SEED
    for letter in word:
        # closure guarantees intermediate membership, so skip re-validation
        p = _insert(p, letter, validate=False)
    return p


def decode(p: perm.Perm) -> str:
    """The unique word that :func:`encode` maps to ``p``."""
    _require_member(p)
    letters: list[str] = []
    while len(p) > 3:
        p, letter = decode_step(p, validate=False)
        letters.append(letter)
    if p != _SEED:
        raise InternalInvariantError(f"decode bottomed out at {p}, not the seed")
    return "".join(reversed(letters))


def words(length: int) -> Iterator[str]:
    """All E/L/R words of the given length, lexicographic in E < L < R."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return map("".join, itertools.product(LETTERS, repeat=length))


def count_231(n: int) -> int:
    """Number of 231-avoiding star permutations: 3^(n-1); refused above
    ``COUNT_LIMIT``.

    >>> [count_231(n) for n in range(1, 6)]
    [1, 3, 9, 27, 81]
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > COUNT_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the 231 count bound n <= {COUNT_LIMIT}:"
            f" 3^(n-1) would have more than {MAX_DIGITS} digits"
        )
    return 3 ** (n - 1)
