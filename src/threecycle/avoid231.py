"""The 231-avoiding star permutations and their bijection with E/L/R words.

A 231-avoiding permutation built from n 3-cycles grows to one built from
n+1 3-cycles in exactly three ways, named by where the new cycle lands
relative to the cycle of the current maximum.  Let a < b be the two
non-final positions of that cycle (the third is always the last position
m).  Each letter puts its three new entries at the same three indices as
positions and as values:

* E uses m+1, m+2 and m+3;
* L uses a, b+1 and m+3;
* R uses a, b+2 and m+3.

So the old entries keep their relative order, as positions and as values,
and a letter only has to place three new elements A, M and H, with the
cycle A -> H -> M -> A, into one linear order of elements:

* E puts A, M and H at the end;
* L puts A just before the previous A, M just before the previous M, and H
  at the end;
* R does the same, but puts M just after the previous M.

The seed 312 is E on the empty order.  Numbering the order once at the end
gives the positions, and iterating the three letters from the seed reaches
every member exactly once, which is what encode/decode exploit.  Encode
and decode take time linear in the word's length: decode peels a word off
any 3-cycle-only input and accepts it when encode maps the word back to the
input, since the images of encode are exactly the members.  Only a refused
input is scanned for 231, to say why it is refused.
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


def _require_three_cycle_only(p: perm.Perm) -> None:
    m = len(p)
    if m == 0 or m % 3:
        raise MembershipError(f"length {m} is not a multiple of 3")
    if not perm.is_three_cycle_only(p):
        raise MembershipError(f"not composed only of 3-cycles: {p}")


def _require_member(p: perm.Perm) -> None:
    _require_three_cycle_only(p)
    if perm.contains_pattern(p, (2, 3, 1)):
        raise MembershipError(f"contains the pattern 231: {p}")


def anchor(p: perm.Perm) -> tuple[int, int]:
    """Positions (a, b), a < b, of the two non-final elements of the cycle
    containing the maximum of a 231-avoiding star permutation.

    The maximum m sits at position a, value a sits at position b, and value b
    sits at position m.
    """
    _require_member(p)
    m = len(p)
    a = p.index(m) + 1
    b = p[m - 1]
    if not (a < b < m) or p[b - 1] != a:
        raise InternalInvariantError(
            f"anchor structure violated for {p}: a={a}, b={b}"
        )
    return a, b


def encode(word: str) -> perm.Perm:
    """The 231-avoiding member of size 3n that a word of length n-1 names:
    each letter places its A, M and H in one linked order, and the
    positions are numbered once at the end.

    >>> encode("EL")
    (3, 1, 2, 9, 8, 4, 5, 7, 6)
    """
    bad = set(word) - set(LETTERS)
    if bad:
        raise ValueError(f"word letters must be in {LETTERS!r}: {sorted(bad)}")
    size = 3 * len(word) + 3
    # elements 1..size in order of creation, so the previous letter's A and M
    # are a - 3 and m - 3; 0 is the sentinel closing the order, so linking
    # before 0 appends
    nxt = [0] * (size + 1)
    prv = [0] * (size + 1)
    image = [0] * (size + 1)
    for i, letter in enumerate("E" + word):  # the seed 312 is E on nothing
        a, m, h = 3 * i + 1, 3 * i + 2, 3 * i + 3
        image[a], image[h], image[m] = h, m, a
        if letter == "E":
            rights = (0, 0, 0)
        else:
            # A goes in before the previous A, which precedes the previous M,
            # so placing A leaves nxt[m - 3] as it is read here
            rights = (a - 3, m - 3 if letter == "L" else nxt[m - 3], 0)
        for x, right in zip((a, m, h), rights):
            left = prv[right]
            nxt[left] = prv[right] = x
            prv[x], nxt[x] = left, right
    rank = [0] * (size + 1)
    order = []
    x = nxt[0]
    while x:
        order.append(x)
        rank[x] = len(order)
        x = nxt[x]
    return tuple(rank[image[x]] for x in order)


def decode(p: perm.Perm) -> str:
    """The unique word that :func:`encode` maps to ``p``: peel one cycle
    A -> H -> M -> A per letter, H the last position, off a linked order of
    the positions, and check that :func:`encode` maps the word back to ``p``.
    A 3-cycle-only ``p`` that fails is scanned for 231 only then, to say why
    it is refused.

    >>> decode((3, 1, 2, 9, 8, 4, 5, 7, 6))
    'EL'
    """
    _require_three_cycle_only(p)
    m = len(p)
    # positions 1..m linked in order; 0 is the sentinel closing the order
    nxt = list(range(1, m + 2))
    nxt[m] = 0
    prv = list(range(-1, m))
    prv[0] = m
    letters: list[str] = []
    for _ in range(m // 3 - 1):
        h = prv[0]
        mid = p[h - 1]
        a = p[mid - 1]
        # the previous letter's cycle, whose H now sits just before h
        prev_mid = p[prv[h] - 1]
        prev_a = p[prev_mid - 1]
        if nxt[mid] == h:
            letter = "E"
        elif nxt[mid] == prev_mid and nxt[a] == prev_a:
            letter = "L"
        elif prv[mid] == prev_mid and nxt[a] == prev_a:
            letter = "R"
        else:
            break  # no letter: p is not a member
        letters.append(letter)
        for x in (a, mid, h):
            nxt[prv[x]] = nxt[x]
            prv[nxt[x]] = prv[x]
    else:
        word = "".join(reversed(letters))
        if encode(word) == tuple(p):
            return word
    _require_member(p)
    raise InternalInvariantError(f"{p} avoids 231 but no word encodes it")


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
