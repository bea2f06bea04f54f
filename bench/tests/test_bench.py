"""Self-tests of the benchmark, in its tiny mode (queries with n <= 2).

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = ["setup_s", "wall_s", "peak_rss_mb", "correct_ratio"]
PER_LAYER = [
    "cli.self_s",
    "oracle.oracle_count_s",
    "oracle.oracle_enumerate_s",
    "oracle.avoidance_profile_s",
    "oracle.pool_s",
    "oracle.parallel_speedup",
    "oracle.hit_ratio",
    "kernels.count_avoiders_s",
    "kernels.count_avoiders_calls",
    "kernels.avoidance_profile_s",
    "kernels.h_of_tset_s",
    "kernels.h_of_tset_calls",
    "kernels.star_leaves_per_s",
    "perm.iterate_star_yields",
    "perm.avoids_calls",
    "perm.avoids_s",
    "perm.contains_per_s",
    "avoid231.encode_calls",
    "avoid231.encode_s",
    "avoid132.count_132_s",
    "avoid132.count_all312_s",
    "avoid321.count_321_via_dyck_s",
    "avoid321.h_polynomial_s",
    "avoid321.dyck_stats_calls",
    "avoid321.dyck_stats_s",
    "avoid321.count_321_via_tsets_s",
    "avoid321.dyck_identity_check_s",
    "series.series_A_s",
    "series.series_B_s",
    "series.compose_s",
    "series.mul_calls",
    "words.dyck_words_yields",
    "trace.overhead_s",
]


def bench(tmp_path, *args: str) -> tuple[dict, dict]:
    """Run the benchmark; return its result line and its run record."""
    rec = tmp_path / "record.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--tiny", "--seconds", "1",
         "--record", str(rec), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(rec.read_text())


def test_benchmark_json_lists_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(tmp_path, workload, trace):
    result, record = bench(tmp_path, "--workload", workload, "--seed", "3", "--trace", trace)
    assert result["correct"], record["failures"] + record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = END_TO_END if trace == "0" else PER_LAYER
    assert list(result["metrics"]) == names
    for name in names:
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert record["metrics"][name]["samples"] >= 1
    assert record["seed"] == 3 and record["backend"] in ("python", "compiled")
    assert record["queries"] == [list(q.argv) for q in workloads.build(workload, 3, tiny=True)]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_wrong_expected_value_counts_as_failed(tmp_path, trace):
    with open(os.path.join(BENCH, "expected.json")) as fh:
        expected = json.load(fh)
    expected["answers"]["count --pattern 321 --n 1..2"]["values"] = [2, 11]
    wrong = tmp_path / "expected.json"
    wrong.write_text(json.dumps(expected))
    result, record = bench(
        tmp_path, "--workload", "formula-ladder", "--seed", "0", "--trace", trace,
        "--expected", str(wrong),
    )
    assert not result["correct"]
    assert result["failed"] >= 1
    assert record["failed_ratio"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_picks_inputs_not_the_mix(workload):
    for tiny in (False, True):
        assert workloads.build(workload, 7, tiny) == workloads.build(workload, 7, tiny)
        kinds = {
            seed: collections.Counter(q.kind for q in workloads.build(workload, seed, tiny))
            for seed in range(20)
        }
        assert all(k == kinds[0] for k in kinds.values())
    lists = {tuple(workloads.build(workload, seed)) for seed in range(20)}
    assert len(lists) > 1


def test_every_query_has_an_expected_answer():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        answers = json.load(fh)["answers"]
    for workload in workloads.WORKLOADS:
        for seed in range(64):
            for tiny in (False, True):
                for q in workloads.build(workload, seed, tiny):
                    assert q.key() in answers, q


def test_enumerate_checker_rejects_bad_output():
    want = {"kind": "enumerate", "pattern": "132", "n": 1, "count": 2}
    assert check.problem("2 3 1\n3 1 2\n", want) is None
    assert "listed twice" in check.problem("2 3 1\n2 3 1\n", want)
    assert "members listed" in check.problem("2 3 1\n", want)
    assert "3-cycles" in check.problem("1 2 3\n", want)
    want = {"kind": "enumerate", "pattern": "231", "n": 1, "count": 1}
    assert "contains 231" in check.problem("2 3 1\n", want)


def test_compare_refuses_other_backend_or_seed(tmp_path, capsys):
    base = {
        "workload": "formula-ladder", "trace": 0, "tiny": False, "seed": 1,
        "backend": "python", "metrics": {"wall_s": {"value": 2.0, "unit": "s"}},
    }
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    old.write_text(json.dumps(base))
    new.write_text(json.dumps(dict(base, metrics={"wall_s": {"value": 1.0, "unit": "s"}})))
    assert run.main(["--compare", str(old), str(new)]) == 0
    assert "0.500" in capsys.readouterr().out
    for field, value in (("backend", "compiled"), ("seed", 2)):
        new.write_text(json.dumps(dict(base, **{field: value})))
        assert run.main(["--compare", str(old), str(new)]) == 2
