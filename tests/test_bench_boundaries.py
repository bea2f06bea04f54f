"""The benchmark's tracer wraps named attributes of the package, and its
scripts call into the package; each name they use must stay, or a benchmark
run breaks.  The tracer is loaded from its file, as the benchmark loads it,
and nothing in it is run; the scripts are only parsed.  A verify run through
counting stand-ins on the same names shows which layers the tracer sees."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import threecycle
from conftest import naive_contains
from threecycle import cli, perm

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
SCRIPTS = ("run.py", "make_expected.py")


def _resolve(module_name, path):
    target = importlib.import_module(f"threecycle.{module_name}")
    for part in path.split("."):
        target = getattr(target, part)
    return target


def _boundaries():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize(
    "module_name,attrs", [(b[0], b[1]) for b in _boundaries()], ids=lambda v: v
)
def test_boundary_resolves(module_name, attrs):
    for path in attrs.split():
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_verify_runs_through_the_boundaries(monkeypatch, capsys):
    # the tracer sees verify's work only through the boundaries it wraps: a
    # sweep or a member check moved to an unwrapped name would vanish from
    # the per-layer record
    calls = Counter()

    def counting(module_name, fn):
        def wrapper(*args, **kwargs):
            calls[module_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module_name, attrs, *_ in _boundaries():
        for path in attrs.split():
            owner, _, attr = path.rpartition(".")
            target = importlib.import_module(f"threecycle.{module_name}")
            if owner:
                target = getattr(target, owner)
            fn = getattr(target, attr)
            monkeypatch.setattr(target, attr, counting(module_name, fn))
    assert cli.main(["verify", "--max-n", "2"]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert calls["oracle"] and calls["perm"], calls


def test_kernel_backend_is_named():
    assert isinstance(threecycle.kernel_backend(), str)


def _package_reads(tree):
    """Every ``<module>.<attr>`` in ``tree`` whose module was imported by
    ``from threecycle import <module>``."""
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "threecycle"
        for alias in node.names
    }
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_bench_reads_resolve():
    reads = set()
    for name in SCRIPTS:
        reads |= _package_reads(ast.parse((BENCH / name).read_text()))
    assert reads
    # make_expected.py evaluates h_polynomial's result
    reads.add(("avoid321", "HPolynomial.evaluate"))
    for module_name, path in sorted(reads):
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_contains_probe_patterns():
    # bench/run.py's containment probe calls perm.contains_pattern with each
    # of its PATTERNS, written as digit strings
    tree = ast.parse((BENCH / "run.py").read_text())
    (names,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["PATTERNS"]
    ]
    assert len(names) == 6
    p = (2, 4, 6, 1, 3, 5)  # the cycles (1,2,4)(3,6,5)
    for name in names:
        sigma = tuple(int(ch) for ch in name)
        assert perm.contains_pattern(p, sigma) == naive_contains(p, sigma)
