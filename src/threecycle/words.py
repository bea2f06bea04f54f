"""Balanced-word generators shared by the counting modules.

Dyck words are produced over a caller-chosen (open, close) letter pair so the
same machinery serves both the {1,2} words of the 132 analysis and the {x,y}
words of the 321 analysis.  Motzkin words use the fixed alphabet U/F/D.
All generators are deterministic: openers are tried before closers, and U
before F before D.
"""

from __future__ import annotations

import itertools
from typing import Iterator


def is_balanced(word: str, up: str, down: str) -> bool:
    """True iff ``word`` uses only ``up``/``down``, prefixes never go negative,
    and the totals match."""
    depth = 0
    for ch in word:
        if ch == up:
            depth += 1
        elif ch == down:
            depth -= 1
            if depth < 0:
                return False
        else:
            return False
    return depth == 0


def dyck_words(n: int, up: str = "1", down: str = "2") -> Iterator[str]:
    """All Dyck words of semilength ``n``, openers-first.

    One loop over an explicit stack of (prefix, opens, closes): the closer
    is pushed before the opener, so the opener is popped first, and a
    prefix with all ``n`` openers is completed by its closers in one step.

    >>> list(dyck_words(2))
    ['1122', '1212']
    """
    if n < 0:
        raise ValueError("semilength must be nonnegative")

    def walk() -> Iterator[str]:
        stack = [("", 0, 0)]
        while stack:
            prefix, opens, closes = stack.pop()
            if opens == n:
                yield prefix + down * (n - closes)
                continue
            if closes < opens:
                stack.append((prefix + down, opens, closes + 1))
            stack.append((prefix + up, opens + 1, closes))

    return walk()


def motzkin_words(k: int) -> Iterator[str]:
    """All Motzkin words of length ``k`` over U/F/D (U before F before D),
    read off the definition: every word of the three letters, in that
    order, kept when it is a Motzkin word (:func:`is_motzkin`).

    >>> list(motzkin_words(2))
    ['UD', 'FF']
    """
    if k < 0:
        raise ValueError("length must be nonnegative")
    return filter(is_motzkin, map("".join, itertools.product("UFD", repeat=k)))


def is_motzkin(word: str) -> bool:
    return is_balanced("".join(ch for ch in word if ch != "F"), "U", "D") and set(
        word
    ) <= {"U", "F", "D"}

