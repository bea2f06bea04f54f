"""Docstring examples double as tests."""

from __future__ import annotations

import doctest

import pytest

from threecycle import (
    _kernels,
    avoid132,
    avoid231,
    avoid321,
    oracle,
    perm,
    series,
    words,
)


@pytest.mark.parametrize(
    "module",
    [_kernels, perm, series, words, avoid132, avoid231, avoid321, oracle],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
