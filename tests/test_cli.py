"""Golden-file tests for every CLI verb, plus exit-code behaviour."""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from threecycle import _kernels, avoid231, avoid321, cli, oracle, series, words

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).parent.parent / "src"

CASES = [
    ("count_321_text.txt", ["count", "--pattern", "321", "--n", "1..5"]),
    (
        "count_132_bfile.txt",
        ["count", "--pattern", "132", "--n", "1..5", "--format", "bfile"],
    ),
    (
        "count_132_form312_bfile.txt",
        [
            "count",
            "--pattern",
            "132",
            "--form",
            "312",
            "--n",
            "1..8",
            "--format",
            "bfile",
        ],
    ),
    (
        "count_pair_jsonl.txt",
        ["count", "--pattern", "132,213", "--n", "1..3", "--format", "jsonl"],
    ),
    (
        "count_231_oracle.txt",
        ["count", "--pattern", "231", "--n", "1..4", "--engine", "oracle"],
    ),
    (
        "count_321_form312.txt",
        ["count", "--pattern", "321", "--form", "312", "--n", "1..5"],
    ),
    (
        "enumerate_132_312_n2.txt",
        ["enumerate", "--pattern", "132", "--form", "312", "--n", "2"],
    ),
    ("enumerate_321_n3.txt", ["enumerate", "--pattern", "321", "--n", "3"]),
    (
        "enumerate_321_n1_jsonl.txt",
        ["enumerate", "--pattern", "321", "--n", "1", "--format", "jsonl"],
    ),
    ("series_A_text.txt", ["series", "--which", "A", "--order", "6"]),
    (
        "series_B_json.txt",
        ["series", "--which", "B", "--order", "6", "--format", "json"],
    ),
    ("hpoly_n4.txt", ["hpoly", "--n", "4"]),
    ("paths_n2.txt", ["paths", "--n", "2"]),
    ("paths_t.txt", ["paths", "--t", "1,2,3"]),
    ("paths_path.txt", ["paths", "--path", "EEENEEENN"]),
    ("encode_EL.txt", ["encode", "--word", "EL"]),
    ("decode_L.txt", ["decode", "--perm", "6 5 1 2 4 3"]),
    ("verify_132_n3.txt", ["verify", "--pattern", "132", "--max-n", "3"]),
    ("verify_pair_n3.txt", ["verify", "--pattern", "132,321", "--max-n", "3"]),
    ("verify_all_n2.txt", ["verify", "--max-n", "2"]),
    ("verify_231_n3.txt", ["verify", "--pattern", "231", "--max-n", "3"]),
    ("verify_213_n2.txt", ["verify", "--pattern", "213", "--max-n", "2"]),
    ("verify_321_n1.txt", ["verify", "--pattern", "321", "--max-n", "1"]),
]


@pytest.mark.parametrize(
    "golden_name,argv", CASES, ids=[name for name, _ in CASES]
)
def test_golden(golden_name, argv, capsys):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN / golden_name).read_text()


def test_known_values_inline(capsys):
    # the headline table row, straight from the command line
    assert cli.main(["count", "--pattern", "321", "--n", "1..5"]) == 0
    assert capsys.readouterr().out == "2 10 60 388 2606\n"
    assert cli.main(["decode", "--perm", "6 5 1 2 4 3"]) == 0
    assert capsys.readouterr().out == "L\n"


def test_byte_identical_across_runs_and_jobs(capsys):
    argv = ["count", "--pattern", "321", "--n", "1..3", "--engine", "oracle"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv + ["--jobs", "2"]) == 0
    assert capsys.readouterr().out == first


def test_enumerate_jsonl_schema(capsys):
    assert cli.main(["enumerate", "--pattern", "321", "--n", "1", "--format", "jsonl"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert {tuple(r["perm"]) for r in records} == {(2, 3, 1), (3, 1, 2)}
    for r in records:
        assert set(r) == {"n", "perm", "cycles"}
        assert r["n"] == 1
        assert r["cycles"].startswith("(")


def test_usage_errors_exit_2(capsys):
    assert cli.main(["count", "--pattern", "999", "--n", "1"]) == 2
    assert cli.main(["count", "--pattern", "123,123", "--n", "1"]) == 2
    assert cli.main(["count", "--pattern", "321", "--n", "0..2"]) == 2
    capsys.readouterr()
    assert cli.main(["count", "--pattern", "231", "--n", "5..3"]) == 2
    assert capsys.readouterr().err == "usage error: empty n range: '5..3'\n"
    assert cli.main(["count", "--pattern", "123", "--form", "312", "--n", "2"]) == 2
    assert cli.main(["paths", "--t", "1,2", "--path", "EEN"]) == 2
    oracle_argv = ["count", "--pattern", "321", "--n", "2", "--engine", "oracle"]
    assert cli.main([*oracle_argv, "--jobs", "0"]) == 2
    capsys.readouterr()
    for argv in [
        ["count", "--pattern", "12", "--n", "1", "--engine", "formula"],
        ["count", "--pattern", "12", "--n", "1", "--engine", "oracle"],
        ["enumerate", "--pattern", "12", "--n", "1"],
        ["enumerate", "--pattern", "1234", "--n", "1"],
    ]:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "usage error: patterns must have length 3" in err
        assert "--engine" not in err
    for argv, message in [
        (["count", "--pattern", "132,", "--n", "3"], "empty pattern in '132,'"),
        (["count", "--pattern", "132", "--n", "x"], "bad n or n-range: 'x'"),
        (
            ["count", "--pattern", "132", "--form", "123", "--n", "3"],
            "form must be all, 312 or 231: '123'",
        ),
        (
            ["count", "--pattern", "132,213", "--form", "312", "--n", "3"],
            "no formula for pattern pairs with a form filter",
        ),
        (
            ["count", "--pattern", "123,132,213", "--n", "3"],
            "formula engine handles one pattern or a pair",
        ),
        (["verify", "--max-n", "0"], "--max-n must be >= 1"),
    ]:
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"usage error: {message}\n")
    # decode has only the 231 bijection, so it takes no --pattern
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", "--pattern", "321", "--perm", "3 1 2"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_refused_on_formula_engine(jobs, capsys):
    assert cli.main(["count", "--pattern", "321", "--n", "3", "--jobs", jobs]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"usage error: jobs must be >= 1, got {jobs}\n"


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_resource_refusal_exits_3(monkeypatch, capsys):
    assert cli.main(["count", "--pattern", "321", "--n", "7", "--engine", "oracle"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "n <= 6" in err

    # the Dyck-word sum refuses before it walks a word
    def no_walk(*args):
        raise AssertionError("walked a Dyck word")

    monkeypatch.setattr(words, "dyck_words", no_walk)
    assert cli.main(["hpoly", "--n", "14"]) == 3
    assert capsys.readouterr().err == (
        "refused: n=14 exceeds the Dyck-word sum bound n <= 13\n"
    )

    # the staircase automaton refuses before it reads a slot
    monkeypatch.setattr(_kernels, "is_y_slot", _fail("is_y_slot"))
    assert cli.main(["count", "--pattern", "321", "--n", "21"]) == 3
    assert capsys.readouterr().err == (
        "refused: n=21 exceeds the staircase automaton bound n <= 20\n"
    )


def _fail(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    return fail


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["count", "--pattern", "321", "--n", "19..21"], _kernels, "is_y_slot"),
        (
            ["count", "--engine", "oracle", "--pattern", "231", "--n", "4..7"],
            _kernels,
            "star_walk",
        ),
        (["enumerate", "--pattern", "123", "--n", "1..7"], _kernels, "star_walk"),
    ],
    ids=["count-321-formula", "count-231-oracle", "enumerate-123"],
)
def test_n_range_refused_before_any_work(argv, module, name, monkeypatch, capsys):
    # the largest n is refused first: no smaller n is computed or printed
    monkeypatch.setattr(module, name, _fail(name))
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: n=")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="no int-to-text digit limit in this Python",
)
@pytest.mark.parametrize("fmt", ["text", "bfile", "jsonl"])
def test_answer_too_long_to_print_exits_3(fmt, capsys):
    # 3^9099 has 4,342 digits, over the default limit of 4,300
    argv = ["count", "--pattern", "231", "--n", "9100"]
    assert cli.main([*argv, "--format", fmt]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: ") and "digits" in err


@pytest.mark.parametrize(
    "argv, module, name",
    [
        (["count", "--pattern", "132", "--n", "501"], series, "catalan_numbers"),
        (
            ["count", "--pattern", "213", "--form", "231", "--n", "499..501"],
            series,
            "catalan_numbers",
        ),
        (["series", "--which", "A", "--order", "501"], series, "catalan_numbers"),
        (["series", "--which", "B", "--order", "501"], series, "catalan_numbers"),
        (["series", "--which", "catalan", "--order", "501"], None, None),
        (["series", "--which", "motzkin", "--order", "501"], None, None),
        (["count", "--pattern", "321", "--form", "312", "--n", "5193"], math, "comb"),
    ],
)
def test_formula_bounds_refuse_before_work(argv, module, name, monkeypatch, capsys):
    if module is not None:
        monkeypatch.setattr(module, name, _fail(name))
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("refused: ") and "bound" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["count", "--pattern", "132"], "series_B"),
        (["count", "--pattern", "213", "--form", "231"], "series_A"),
        (["count", "--pattern", "132", "--form", "312"], "series_A"),
    ],
)
def test_132_range_reads_one_series(argv, name, monkeypatch, capsys):
    per_n = []
    for n in range(3, 13):
        assert cli.main([*argv, "--n", str(n)]) == 0
        per_n.append(capsys.readouterr().out.strip())
    real = getattr(series, name)
    orders = []

    def counting(order):
        orders.append(order)
        return real(order)

    monkeypatch.setattr(series, name, counting)
    assert cli.main([*argv, "--n", "3..12"]) == 0
    assert capsys.readouterr().out.split() == per_n
    assert orders == [12]


def test_321_range_reads_one_pass(monkeypatch, capsys):
    per_n = []
    for n in range(1, 11):
        assert cli.main(["count", "--pattern", "321", "--n", str(n)]) == 0
        per_n.append(capsys.readouterr().out.strip())
    real = avoid321.tset_h_sum
    sizes = []

    def counting(n, t):
        sizes.append(n)
        return real(n, t)

    monkeypatch.setattr(avoid321, "tset_h_sum", counting)
    assert cli.main(["count", "--pattern", "321", "--n", "1..10"]) == 0
    assert capsys.readouterr().out.split() == per_n
    assert sizes == [range(1, 11)]


def test_verify_pins_the_dyck_transfer(monkeypatch, capsys):
    # a wrong transfer shows in both rows that read it
    real = avoid321.dyck_h_sum
    monkeypatch.setattr(avoid321, "dyck_h_sum", lambda n, t: real(n, t) + (n == 5))
    assert cli.main(["verify", "--pattern", "321", "--max-n", "2"]) == 1
    out = capsys.readouterr().out
    assert "route check 321: MISMATCH [(5, 2606, 2606, 2607)]\n" in out
    assert "Dyck identity: MISMATCH [(5, False, True)]\n" in out


def test_321_counts_past_the_dyck_bound(capsys):
    # n = 13 was computed once by the Dyck-word sum, count_321_via_dyck
    assert cli.main(["count", "--pattern", "321", "--n", "11..13"]) == 0
    assert capsys.readouterr().out == "312843918 2235028210 15999423988\n"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="no int-to-text digit limit in this Python",
)
def test_answer_over_a_lowered_digit_limit_exits_3(capsys):
    # 3^1399 has 668 digits: under the 231 bound, over a limit of 640
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli.main(["count", "--pattern", "231", "--n", "1400"]) == 3
    finally:
        sys.set_int_max_str_digits(limit)
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "refused: an answer has more than 640 digits, Python's limit for printing\n"
    )


def test_verify_failure_exits_1(monkeypatch, capsys):
    # force a mismatch to prove the failure path wires through to exit 1
    real = oracle.profile_count

    def wrong(table, patterns, form=None):
        return real(table, patterns, form) + 1

    monkeypatch.setattr(oracle, "profile_count", wrong)
    assert cli.main(["verify", "--pattern", "132", "--max-n", "2"]) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out and out.rstrip().endswith("FAIL")


def test_decode_rejects_non_member(capsys):
    assert cli.main(["decode", "--perm", "2 3 1"]) == 2
    capsys.readouterr()


# One wrong route per verify row that does not read the sweep; every swept row
# is broken on its oracle side through oracle.profile_count.
BREAKERS = {
    "bijection 231": (avoid231, "encode", lambda real: lambda word: real("")),
    "series identity": (series, "series_B", lambda real: series.series_A),
    # the route takes one n or, from the formula engine, a range of n
    "route check 321": (
        avoid321,
        "count_321_via_tsets",
        lambda real: lambda n: (
            [c + 1 for c in real(n)] if isinstance(n, range) else real(n) + 1
        ),
    ),
    "Dyck identity": (avoid321, "dyck_identity_check", lambda real: lambda n: False),
}
SWEPT_BREAKER = (oracle, "profile_count", lambda real: lambda *a: real(*a) + 1)


@pytest.mark.parametrize("check", cli.CHECKS, ids=[c.label for c in cli.CHECKS])
def test_verify_row_mismatch_exits_1(check, monkeypatch, capsys):
    module, name, wrong = SWEPT_BREAKER if check.sweeps else BREAKERS[check.label]
    monkeypatch.setattr(module, name, wrong(getattr(module, name)))
    pattern = check.selected_by[0] if check.selected_by else "all"
    assert cli.main(["verify", "--pattern", pattern, "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith(f"{check.label}: MISMATCH ") for line in lines)
    assert lines[-1] == "FAIL"


def test_series_identity_checks_a_itself(monkeypatch, capsys):
    # B is built from A, so an A off by one at coefficient 15 still gives
    # B(1 - A) = 2A; the composed (c - 1) m(c - 1) side catches it
    real = series.series_A

    def off_by_one(order):
        coeffs = list(real(order).coeffs)
        if order >= 15:
            coeffs[15] += 1
        return series.IntegerSeries(coeffs)

    monkeypatch.setattr(series, "series_A", off_by_one)
    monkeypatch.setattr(series, "series_all312_avoiders", off_by_one)
    assert cli.main(["verify", "--pattern", "132", "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("pattern 132: formula=oracle")
    assert lines[1].startswith("series identity: MISMATCH ")
    assert lines[-1] == "FAIL"


@pytest.fixture
def profile_calls(monkeypatch):
    """Stand in for the profile sweep and record the sizes it is asked for."""
    calls = []

    def record(ns, jobs=1):
        calls.extend(ns)
        return [[[0] * 64 for _ in range(3)] for _ in ns]

    monkeypatch.setattr(oracle, "avoidance_profiles", record)
    return calls


@pytest.mark.parametrize("argv", [["--max-n", "7"], ["--max-n", "7", "--jobs", "2"]])
def test_verify_refuses_large_max_n_before_sweeping(argv, profile_calls, capsys):
    assert cli.main(["verify", *argv]) == 3
    assert profile_calls == []
    assert capsys.readouterr().err.startswith("refused: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--pattern", "321", "--n", "2", "--engine", "oracle"],
        ["enumerate", "--pattern", "321", "--n", "2"],
        ["verify", "--max-n", "2"],
    ],
    ids=["count", "enumerate", "verify"],
)
def test_no_flag_lifts_the_walk_bound(argv, capsys):
    # one bound, oracle.WALK_LIMIT, and no flag that overrides it
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--allow-large"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--allow-large" in err


def test_help_names_no_ignored_option():
    parser = cli.build_parser()
    (verbs,) = [
        action.choices
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert {"count", "enumerate", "verify"} <= set(verbs)
    for verb, sub in verbs.items():
        assert "allow" not in sub.format_help(), verb


def _readme_bounds_row(start):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    rows = [line for line in readme.splitlines() if line.startswith(start)]
    assert len(rows) == 1, rows
    return rows[0]


def test_readme_bounds_table_names_the_walk_limit():
    assert f"`n <= {oracle.WALK_LIMIT}`" in _readme_bounds_row("| exhaustive")


def test_paths_listing_refused_before_any_line(capsys):
    limit = avoid321.TSET_LIST_LIMIT
    assert f"`n <= {limit}`" in _readme_bounds_row("| `paths --n`")
    assert cli.main(["paths", "--n", str(limit + 1)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"refused: n={limit + 1} exceeds the staircase-set listing bound n <= {limit}\n"
    )


def test_count_range_length_refused_before_any_work(monkeypatch, capsys):
    limit = cli.RANGE_LIMIT
    assert limit == avoid231.COUNT_LIMIT == 9013
    assert f"`<= {limit}` values" in _readme_bounds_row("| `count --n lo..hi`")

    def no_work(n):
        raise AssertionError("the 123 route ran")

    monkeypatch.setattr(oracle, "closed_form_123", no_work)
    for engine in ("formula", "oracle"):
        argv = ["count", "--pattern", "123", "--n", f"1..{limit + 1}"]
        assert cli.main([*argv, "--engine", engine]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"refused: the range 1..{limit + 1} has {limit + 1} values,"
            f" over the bound {limit}\n"
        )
    monkeypatch.undo()
    assert cli.main(["count", "--pattern", "132,213", "--n", f"2..{limit + 1}"]) == 0
    assert capsys.readouterr().out == " ".join(["2"] * limit) + "\n"


def test_closed_stdout_exits_quietly():
    # paths --n 7 prints 7,752 lines, about 300 KB, more than a pipe and the
    # stream's buffer hold, so the CLI is still writing when the reader closes
    proc = subprocess.Popen(
        [sys.executable, "-m", "threecycle.cli", "paths", "--n", "7"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert first == b"1,2,3,4,5,6,7 EEEEEEEEEEEEEENNNNNNN\n"
    assert err == b""
    assert proc.returncode == cli.EXIT_BROKEN_PIPE


def test_import_loads_only_what_every_verb_needs():
    # -S: no site module, so no .pth file can load these ahead of the import
    unwanted = [
        "dataclasses",
        "inspect",
        "concurrent.futures",
        "multiprocessing",
        "logging",
        "json",
        "pickle",
    ]
    code = "import sys, threecycle.cli; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *unwanted],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert proc.stdout == "\n"


@pytest.mark.parametrize(
    "pattern", ["1234", "12", "1234,321", "132,132", "132,213,321"]
)
def test_verify_rejects_bad_pattern_before_sweeping(pattern, profile_calls, capsys):
    assert cli.main(["verify", "--pattern", pattern]) == 2
    assert profile_calls == []
    err = capsys.readouterr().err
    assert "one of 123, 132, 213, 231, 312, 321" in err
    assert "--engine" not in err


def test_verify_pair_label_ignores_spaces(capsys):
    assert cli.main(["verify", "--pattern", "321,132", "--max-n", "2"]) == 0
    unspaced = capsys.readouterr().out
    assert cli.main(["verify", "--pattern", "321, 132", "--max-n", "2"]) == 0
    assert capsys.readouterr().out == unspaced
    assert unspaced.startswith("pair 321,132: ")
