"""The package under test is the one ``PYTHONPATH`` names, if any, and
otherwise this checkout's ``src``: a run against another copy's ``src``
tests that copy, and a plain run tests this one."""

from __future__ import annotations

import os

import threecycle
from conftest import SRC


def test_threecycle_comes_from_pythonpath_first_then_this_src():
    listed = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    expected = next(
        os.path.join(os.path.realpath(p), "threecycle")
        for p in [*listed, SRC]
        if os.path.isfile(os.path.join(p, "threecycle", "__init__.py"))
    )
    assert os.path.dirname(os.path.realpath(threecycle.__file__)) == expected
