"""Golden-file tests for every CLI verb, plus exit-code behaviour."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from threecycle import cli, oracle

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("count_321_text.txt", ["count", "--pattern", "321", "--n", "1..5"]),
    (
        "count_132_bfile.txt",
        ["count", "--pattern", "132", "--n", "1..5", "--format", "bfile"],
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
    assert cli.main(["count", "--pattern", "123", "--form", "312", "--n", "2"]) == 2
    assert cli.main(["paths", "--t", "1,2", "--path", "EEN"]) == 2
    assert cli.main(["decode", "--pattern", "321", "--perm", "3 1 2"]) == 2
    oracle_argv = ["count", "--pattern", "321", "--n", "2", "--engine", "oracle"]
    assert cli.main([*oracle_argv, "--jobs", "0"]) == 2
    capsys.readouterr()


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_resource_refusal_exits_3(capsys):
    assert cli.main(["count", "--pattern", "321", "--n", "6", "--engine", "oracle"]) == 3
    err = capsys.readouterr().err
    assert "n <= 5" in err
    assert (
        cli.main(
            [
                "count",
                "--pattern",
                "321",
                "--n",
                "7",
                "--engine",
                "oracle",
                "--allow-large",
            ]
        )
        == 3
    )
    capsys.readouterr()


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
