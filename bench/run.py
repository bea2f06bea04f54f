#!/usr/bin/env python3
"""The threecycle benchmark: run one workload the way a user does and report
its metrics.

    python3 bench/run.py --workload formula-ladder --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --compare OLD NEW

Run it from the repository root; it needs no build step.  With ``--trace 0``
it is a closed loop with one client.  It runs the workload's query list as
``python -m threecycle.cli ...`` processes with ``PYTHONPATH=src``, one at a
time, again and again until ``--seconds`` are used (the last pass may stop
part way).  It checks every answer against ``bench/expected.json`` and
reports the end-to-end metrics:

* ``setup_s``: median wall of a no-work CLI call (``encode --word ""``),
  four probes spread over each pass;
* ``wall_s``: wall of the whole query list, the sum over its queries of
  each query's median wall across passes;
* ``peak_rss_mb``: the largest max-RSS of any process the run started, pool
  workers included;
* ``correct_ratio``: queries answered correctly (right output, exit 0, no
  timeout) over queries attempted.  The record also keeps ``failed_ratio``.

The two times are given at a reference speed (see ``REF_CODE``), because
the speed of a shared VM drifts over minutes; the record keeps the raw times.

A wrong answer makes the run's ``correct`` false, so a fast wrong run is
never accepted.

With ``--trace 1`` the same queries are replayed through ``cli.main(argv)``
in a forked child of this process, one child per query, so each query starts
with empty caches as a CLI process does.  Each pass runs every query
untraced and then traced (see ``tracer.py``), until ``--seconds`` are used.
The run reports the per-layer metrics and ``trace.overhead_s``, the traced
minus the untraced wall of the same queries.  It also checks the layer map
(``LAYER_MAP``): a layer must see calls on the workloads it works on, and
zero calls on the others.

Each run writes a JSON record under ``bench/out/``.  ``--compare`` prints the
ratio of every metric between two records, or two directories of records.
It refuses records whose kernel backend or seed differ.  ``bench/baseline/``
holds seed-111 records of the first benchmarked commit, one per workload and
mode.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import pickle
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "correct_ratio": "ratio"}
QUERY_TIMEOUT_S = 60
PROBES_PER_PASS = 4
# The speed of the shared 2-core VM this was tuned on drifts by up to 50%
# over minutes, and every wall time drifts with it.  So each end-to-end time
# is scaled to a reference speed: raw wall * REF_NOMINAL_S / the wall of
# REF_CODE around the call.  REF_CODE is a Python start that imports the
# CLI's standard-library modules and no threecycle code, so it drifts with
# the machine and no change to threecycle moves it.  The record keeps the
# raw walls.
REF_CODE = "import argparse, concurrent.futures, dataclasses, itertools, json, math"
REF_NOMINAL_S = 0.1
PROBE = ("encode", "--word", "")
PROBE_ANSWER = "3 1 2\n"

# The layer map: the end-to-end metrics each layer should move, and the
# workloads it works on.  The traced run checks that a layer sees calls on
# exactly those workloads, and none on the others.
LAYER_MAP = {
    "cli": ("wall_s", workloads.WORKLOADS),
    "oracle": ("wall_s", ("oracle-exhaustive", "verify-suite")),
    "kernels": ("wall_s", ("oracle-exhaustive", "verify-suite")),
    "perm": ("wall_s, peak_rss_mb", ("oracle-exhaustive", "verify-suite")),
    "avoid231": ("wall_s", ("verify-suite",)),
    "avoid132": ("wall_s", ("formula-ladder", "verify-suite")),
    "avoid321": ("wall_s", ("formula-ladder", "verify-suite")),
    "series": ("wall_s", ("formula-ladder", "verify-suite")),
    "words": ("wall_s", ("formula-ladder", "verify-suite")),
}

CONTAINS_PROBE_SIZES = (4, 5, 6)
CONTAINS_PROBE_PERMS = 1000
PATTERNS = ("123", "132", "213", "231", "312", "321")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def git_sha() -> str:
    """HEAD of the checkout's ``.git``, read as files; "unknown" outside a
    git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cli_env() -> dict[str, str]:
    """The CLI's environment: ``src`` on the path, and byte-code caching on,
    so the warm-up call compiles ``src`` once, as an installed package is."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_cli(argv: tuple[str, ...], env: dict[str, str]) -> tuple[float, str | None, str]:
    """Run one CLI process; return its wall, what went wrong (or None), and
    its standard output.  The process gets its own session, so a timeout
    kills its pool workers with it."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "threecycle.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=QUERY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return perf_counter() - t0, f"timed out after {QUERY_TIMEOUT_S} s", ""
    wall = perf_counter() - t0
    if proc.returncode != 0:
        return wall, f"exit {proc.returncode}: {err.strip()[-200:]}", out
    return wall, None, out


def backend(env: dict[str, str]) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", "import threecycle; print(threecycle.kernel_backend())"],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=QUERY_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"cannot import threecycle from {SRC}: {proc.stderr.strip()[-300:]}")
    return proc.stdout.strip()


class Outcome:
    """Attempts and failures of one run."""

    def __init__(self, answers: dict[str, dict]):
        self.answers = answers
        self.attempted = 0
        self.failures: list[str] = []

    def judge(self, query: workloads.Query, error: str | None, stdout: str) -> None:
        self.attempted += 1
        want = self.answers.get(query.key())
        if error is None and want is None:
            error = "no expected answer"
        if error is None:
            error = check.problem(stdout, want)
        if error is not None:
            self.failures.append(f"{' '.join(query.argv)}: {error}")
            log(f"FAILED {' '.join(query.argv)}: {error}")


def reference_s(env: dict[str, str]) -> float:
    """Wall of a Python start that imports the standard-library modules the
    CLI imports, but no threecycle code: the machine's current speed at the
    kind of work a CLI call does, independent of the program under test."""
    t0 = perf_counter()
    subprocess.run(
        [sys.executable, "-c", REF_CODE],
        env=env,
        cwd=ROOT,
        check=True,
        capture_output=True,
        timeout=QUERY_TIMEOUT_S,
    )
    return perf_counter() - t0


class ScaledClock:
    """Runs CLI calls and times each at the reference speed: its raw wall
    times REF_NOMINAL_S over the mean wall of the reference start just before
    and just after it."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self.refs = [reference_s(env)]

    def run(self, argv: tuple[str, ...]) -> tuple[float, float, str | None, str]:
        """Scaled wall, raw wall, what went wrong (or None), standard output."""
        wall, error, out = run_cli(argv, self.env)
        self.refs.append(reference_s(self.env))
        return wall * 2 * REF_NOMINAL_S / (self.refs[-2] + self.refs[-1]), wall, error, out

    def probe(self) -> tuple[float, float]:
        scaled, wall, error, out = self.run(PROBE)
        if error or out != PROBE_ANSWER:
            raise SystemExit(f"the no-work CLI call failed: {error or repr(out)}")
        return scaled, wall


def run_untraced(queries, outcome: Outcome, seconds: int) -> tuple[dict, dict]:
    """Cycle through the queries until ``seconds`` are used.  After the first
    full pass, a query runs again only if its median wall so far still fits,
    so the last pass may be partial.  Returns the metrics and the raw
    samples."""
    start = perf_counter()
    clock = ScaledClock(cli_env())
    clock.probe()  # warm-up: byte-compiles src
    setup: list[tuple[float, float]] = []
    walls: list[list[tuple[float, float]]] = [[] for _ in queries]
    # spread the probes over the pass: the machine's speed drifts over seconds
    probes_before = collections.Counter(
        len(queries) * k // PROBES_PER_PASS for k in range(PROBES_PER_PASS)
    )

    scaled_at, raw_at = 0, 1

    def median(samples, at):
        return statistics.median(s[at] for s in samples)

    i = 0
    while not walls[i] or perf_counter() - start + median(walls[i], raw_at) <= seconds:
        setup += [clock.probe() for _ in range(probes_before[i])]
        scaled, wall, error, out = clock.run(queries[i].argv)
        outcome.judge(queries[i], error, out)
        walls[i].append((scaled, wall))
        i = (i + 1) % len(queries)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": {"value": median(setup, scaled_at), "samples": len(setup)},
        "wall_s": {
            "value": sum(median(w, scaled_at) for w in walls),
            "samples": min(len(w) for w in walls),
        },
        "peak_rss_mb": {"value": peak_kb / 1024, "samples": len(setup) + 1 + outcome.attempted},
        "correct_ratio": {
            "value": 1 - len(outcome.failures) / outcome.attempted,
            "samples": outcome.attempted,
        },
    }
    raw = {
        "raw_setup_s": median(setup, raw_at),
        "raw_wall_s": sum(median(w, raw_at) for w in walls),
        "reference_s": statistics.median(clock.refs),
        "reference_samples_s": clock.refs,
        "setup_samples_s": setup,
        "per_query_walls_s": walls,
    }
    return metrics, raw


def _child(index: int, query: workloads.Query, traced: bool) -> dict:
    import threecycle
    from threecycle import cli

    t = None
    if traced:
        t = tracer.Tracer(index)
        t.install(threecycle)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = perf_counter()
        try:
            code = cli.main(list(query.argv))
        except SystemExit as exc:
            code = exc.code
        wall = perf_counter() - t0
    return {"code": code, "stdout": out.getvalue(), "wall_s": wall, "trace": t and t.export()}


def run_forked(index: int, query: workloads.Query, traced: bool) -> dict:
    """Run one query through ``cli.main`` in a forked child, which starts
    from this process's state: threecycle imported, no query run yet."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        status = 1
        try:
            # on timeout, kill this child and the pool workers it started
            os.setsid()
            signal.signal(signal.SIGALRM, lambda *_: os.killpg(0, signal.SIGKILL))
            signal.alarm(QUERY_TIMEOUT_S)
            payload = pickle.dumps(_child(index, query, traced))
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        return {"code": None, "stdout": "", "wall_s": 0.0, "trace": None, "error": f"child status {status}"}
    return pickle.loads(payload)


def replay(query: workloads.Query, index: int, outcome: Outcome, traced: bool) -> dict:
    r = run_forked(index, query, traced)
    error = r.get("error") or (None if r["code"] == 0 else f"exit {r['code']}")
    outcome.judge(query, error, r["stdout"])
    return r


def random_star(rng: random.Random, n: int) -> tuple[int, ...]:
    values = list(range(1, 3 * n + 1))
    rng.shuffle(values)
    p = [0] * (3 * n + 1)
    for i in range(0, 3 * n, 3):
        a, b, c = values[i : i + 3]
        p[a], p[b], p[c] = b, c, a
    return tuple(p[1:])


def contains_per_s(seed: int) -> float:
    """Containment checks per second: ``perm.contains_pattern`` over a seeded
    sample of star permutations, n = 4..6, all six patterns; median of three
    timings."""
    from threecycle import perm

    rng = random.Random(f"contains:{seed}")
    sample = [
        random_star(rng, n)
        for n in CONTAINS_PROBE_SIZES
        for _ in range(CONTAINS_PROBE_PERMS)
    ]
    patterns = [tuple(int(ch) for ch in s) for s in PATTERNS]
    times = []
    for _ in range(3):
        t0 = perf_counter()
        for p in sample:
            for sigma in patterns:
                perm.contains_pattern(p, sigma)
        times.append(perf_counter() - t0)
    return len(sample) * len(patterns) / statistics.median(times)


def parallel_speedup(queries, untraced: list[dict], outcome: Outcome) -> float:
    """Median over the pooled queries of wall(jobs 1) / wall(jobs N), from
    untraced replays; the jobs-1 twin is replayed when the list lacks it."""
    walls = {q.argv: r["wall_s"] for q, r in zip(queries, untraced)}
    ratios = []
    for q, r in zip(queries, untraced):
        if "--jobs" not in q.argv:
            continue
        twin = q.with_jobs(1)
        if twin.argv not in walls:
            walls[twin.argv] = replay(twin, -1, outcome, traced=False)["wall_s"]
        ratios.append(walls[twin.argv] / r["wall_s"])
    return statistics.median(ratios) if ratios else 0.0


def run_traced(workload: str, queries, outcome: Outcome, seconds: int, seed: int):
    sys.path.insert(0, SRC)
    import threecycle.cli  # noqa: F401  (children fork from this state)

    start = perf_counter()
    passes, overheads, untraced_walls, calls, unstable = [], [], [], None, []
    speedup = None
    while True:
        # each query untraced, then traced, so the machine's drift cancels
        # out of the overhead
        pass_start = perf_counter()
        untraced, traced = [], []
        for i, q in enumerate(queries):
            untraced.append(replay(q, i, outcome, traced=False))
            traced.append(replay(q, i, outcome, traced=True))
        pass_s = perf_counter() - pass_start
        if speedup is None:
            speedup = parallel_speedup(queries, untraced, outcome)
        exports = [r["trace"] for r in traced if r["trace"]]
        metrics, layer_calls = tracer.pass_metrics(exports)
        passes.append(metrics)
        untraced_walls.append(sum(r["wall_s"] for r in untraced))
        overheads.append(sum(r["wall_s"] for r in traced) - untraced_walls[-1])
        calls = calls or layer_calls
        if layer_calls != calls:
            unstable.append(f"calls per layer differ between passes: {dict(layer_calls)}")
        # start another pass only if it should end within ``seconds``
        if perf_counter() - start + pass_s > seconds:
            break
    merged, unstable_counts = tracer.merge_passes(passes)
    unstable += unstable_counts
    merged["oracle.parallel_speedup"] = speedup
    merged["perm.contains_per_s"] = contains_per_s(seed)
    merged["trace.overhead_s"] = statistics.median(overheads)
    problems = unstable + [
        f"layer {layer} saw {calls[layer]} calls on {workload}, expected"
        f" {'some' if workload in works_on else 'none'}"
        for layer, (_, works_on) in LAYER_MAP.items()
        if bool(calls[layer]) != (workload in works_on)
    ]
    metrics = {
        name: {"value": merged[name], "samples": len(passes)} for name in tracer.UNITS
    }
    extra = {
        "untraced_wall_s": statistics.median(untraced_walls),
        "layer_calls": dict(calls),
        "spans": [s for e in exports for s in e["spans"]],
        "notes": [tracer.POOL_NOTE, tracer.LEAVES_NOTE],
    }
    return metrics, problems, extra


def record_path(args) -> str:
    tiny = "_tiny" if args.tiny else ""
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}{tiny}.json"
    return args.record or os.path.join(HERE, "out", name)


def load_records(path: str) -> dict[tuple, dict]:
    if os.path.isdir(path):
        files = [
            os.path.join(path, f)
            for f in sorted(os.listdir(path))
            if f.startswith("BENCH_") and f.endswith(".json")
        ]
    else:
        files = [path]
    out = {}
    for f in files:
        with open(f) as fh:
            rec = json.load(fh)
        out[(rec["workload"], rec["trace"], rec["tiny"])] = rec
    return out


def compare(old_path: str, new_path: str) -> int:
    old, new = load_records(old_path), load_records(new_path)
    shared = sorted(old.keys() & new.keys())
    if not shared:
        log("no records with the same workload and trace mode to compare")
        return 2
    for key in shared:
        for field in ("backend", "seed"):
            if old[key][field] != new[key][field]:
                log(
                    f"refusing to compare {key[0]} (trace {key[1]}): {field} differs,"
                    f" {old[key][field]!r} vs {new[key][field]!r}"
                )
                return 2
    print(f"{'workload':<18} {'metric':<32} {'old':>12} {'new':>12} {'new/old':>8}")
    for key in shared:
        o, n = old[key]["metrics"], new[key]["metrics"]
        for name in o:
            if name not in n:
                continue
            a, b = o[name]["value"], n[name]["value"]
            ratio = f"{b / a:8.3f}" if a else "     n/a"
            print(f"{key[0]:<18} {name:<32} {a:>12.5g} {b:>12.5g} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="n <= 2 queries, for self-tests")
    parser.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    parser.add_argument("--record", help="where to write the run record")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "threecycle", "cli.py")):
        log(f"no threecycle source under {SRC}; run from a checkout of the repository")
        return 2

    with open(args.expected) as fh:
        answers = json.load(fh)["answers"]
    env = cli_env()
    kernel_backend = backend(env)
    queries = workloads.build(args.workload, args.seed, args.tiny)
    outcome = Outcome(answers)
    log(f"{args.workload} seed {args.seed} trace {args.trace}: {len(queries)} queries, backend {kernel_backend}")

    problems: list[str] = []
    extra: dict = {}
    if args.trace:
        metrics, problems, extra = run_traced(args.workload, queries, outcome, args.seconds, args.seed)
        units = tracer.UNITS
    else:
        metrics, extra = run_untraced(queries, outcome, args.seconds)
        units = END_TO_END_UNITS
    for name, m in metrics.items():
        m["unit"] = units[name]
    for p in problems:
        log(f"PROBLEM {p}")

    failed = len(outcome.failures)
    correct = failed == 0 and not problems
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "backend": kernel_backend,
        "queries": [list(q.argv) for q in queries],
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "failed_ratio": failed / outcome.attempted,
        "failures": outcome.failures,
        "problems": problems,
        "metrics": metrics,
        **extra,
    }
    path = record_path(args)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    log(f"record written to {path}")

    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
