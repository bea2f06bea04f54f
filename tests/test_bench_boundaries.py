"""The benchmark's tracer wraps named attributes of the package; each name it
pins must stay, or a traced benchmark run breaks.  The tracer is loaded from
its file, as the benchmark loads it, and nothing in it is run."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import threecycle

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize(
    "module_name,attrs", [(b[0], b[1]) for b in _boundaries()], ids=lambda v: v
)
def test_boundary_resolves(module_name, attrs):
    module = importlib.import_module(f"threecycle.{module_name}")
    for path in attrs.split():
        target = module
        for part in path.split("."):
            target = getattr(target, part)
        assert callable(target), (module_name, path)


def test_kernel_backend_is_named():
    assert isinstance(threecycle.kernel_backend(), str)
