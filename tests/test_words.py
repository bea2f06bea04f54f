"""The Dyck- and Motzkin-word generators: count, order, balance and
refusal."""

from __future__ import annotations

import itertools

import pytest

from conftest import catalan_direct
from threecycle import series, words

ALPHABETS = [("1", "2"), ("x", "y")]


def lowest_depth(word, up, down):
    """The lowest prefix depth of ``word`` (KeyError on a foreign letter)."""
    steps = map({up: 1, down: -1}.__getitem__, word)
    return min(itertools.accumulate(steps), default=0)


@pytest.mark.parametrize("up, down", ALPHABETS)
def test_dyck_words_are_the_catalan_many_balanced_words_in_order(up, down):
    for n in range(13):
        got = list(words.dyck_words(n, up, down))
        assert len(got) == catalan_direct(n), n
        # strictly increasing: the opener sorts first in both alphabets
        assert all(a < b for a, b in zip(got, got[1:])), n
        for word in got:
            assert len(word) == 2 * n
            assert word.count(up) == n, word
            assert lowest_depth(word, up, down) >= 0, word


def test_dyck_words_refuses_a_negative_semilength_at_the_call():
    with pytest.raises(ValueError, match="nonnegative"):
        words.dyck_words(-1)


def test_motzkin_words_are_the_motzkin_many_words_in_order():
    counts = series.motzkin_numbers(10)
    rank = str.maketrans("UFD", "012")  # U < F < D as letters to compare
    for k in range(11):
        got = list(words.motzkin_words(k))
        assert len(got) == counts[k], k
        keys = [word.translate(rank) for word in got]
        assert all(a < b for a, b in zip(keys, keys[1:])), k
        for word in got:
            assert len(word) == k and words.is_motzkin(word), word


def test_motzkin_words_refuses_a_negative_length_at_the_call():
    with pytest.raises(ValueError, match="nonnegative"):
        words.motzkin_words(-1)
