"""Query pools of the threecycle benchmark, and why each workload exists.

Every workload is a closed loop with one client: the benchmark runs one
``python -m threecycle.cli ...`` process at a time and starts the next query
only when the previous one has exited.  The seed picks inputs only among
choices with the same answer and the same kind of work: a symmetric twin
pattern (132 <-> 213, 231 <-> 312, reverse-complement images of each other),
which of the two cycle forms, which twin of a pattern pair, and the query
order.  So every seed runs the same mix of query kinds.

Twins cost about the same.  Timed in-process at the seed commit, five
interleaved repeats each (Python 3.11, one core of a 2-core VM), an
unrestricted n = 4 oracle count takes a median 0.78 s for 231 and 0.76 s
for 312, 0.78 s for 132 and 0.85 s for 213; single runs on that VM spread
by about 20%.  Pattern pairs differ in answer (0, 1 or 2 at n = 4),
so the pair pool holds one twin pair, {231, 321} and {312, 321} (answer 1),
not all 15 pairs.

Seed-commit timings of single CLI calls (pure-Python backend, same VM):
``verify --max-n 4`` 6.1-7.2 s, ``verify --max-n 4 --jobs 2`` 5.6 s,
``count --engine oracle --pattern 321 --n 4`` 1.0 s, ``count --pattern 132
--n 1..20`` 1.5 s, ``series --which B --order 200`` 1.2 s, and a no-op CLI
call 0.13 s.  An n = 4 oracle query visits
``star_cardinality(4) = 12! / (4! 3^4) = 246,400`` star permutations.  The
README's figure of 369,600 for the n = 4 sweep is wrong.  The n = 5 form
query visits ``star_cardinality(5) / 2^5 = 1,401,400``.

Oracle queries at n = 5 without a form, and all queries at n = 6, are left
out: in pure Python each takes minutes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("oracle-exhaustive", "formula-ladder", "verify-suite")

WHY = {
    "oracle-exhaustive": (
        "Nearly all its time is in _kernels.count_avoiders, perm.iterate_star"
        " with perm.avoids, and the oracle process pool; no formula module"
        " runs.  The prefix-pruned oracle (ROADMAP item 1) shows its gain"
        " here.  The n = 5 query lets a change in search growth show, not"
        " only a change in constant factor."
    ),
    "formula-ladder": (
        "All its time is in the avoid132 composition sums, the avoid321"
        " Dyck-word sums, the words generators and the series engine; the"
        " oracle does no work.  Polynomial formula routes (ROADMAP item 2)"
        " show their gain here.  The cheap closed-form ladders (231, 321 with"
        " a form) expose any fixed cost per query that a change adds."
    ),
    "verify-suite": (
        "The same layers used in other ways: the oracle runs as one"
        " avoidance_profile sweep per n, with and without the pool;"
        " oracle_enumerate materializes the 231 image; count_321_via_tsets"
        " drives _kernels.h_of_tset; formula routes run only at small n.  A"
        " change that speeds per-query counting at the cost of the profile"
        " sweep or the enumerate path shows here."
    ),
}


@dataclass(frozen=True)
class Query:
    """One CLI call: ``kind`` names what it measures; ``argv`` follows
    ``python -m threecycle.cli``."""

    kind: str
    argv: tuple[str, ...]

    def key(self) -> str:
        """Lookup key for the expected answer: the argv without ``--jobs``,
        which changes how a query runs but not its answer."""
        argv = list(self.argv)
        if "--jobs" in argv:
            i = argv.index("--jobs")
            del argv[i : i + 2]
        return " ".join(argv)

    def with_jobs(self, jobs: int) -> "Query":
        argv = self.key().split(" ")
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        return Query(self.kind, tuple(argv))


def pool_jobs() -> int:
    """Worker count of the pooled queries: two, or fewer on a smaller box, so
    the load never asks for more workers than there are cores."""
    return max(1, min(2, os.cpu_count() or 1))


def _q(kind: str, text: str) -> Query:
    return Query(kind, tuple(text.split(" ")))


def _oracle_exhaustive(rng: random.Random, tiny: bool) -> list[Query]:
    n, n_form = (2, 2) if tiny else (4, 5)
    jobs = pool_jobs()
    # one unrestricted count per symmetry class: 231|312, 132|213, 321, 123
    classes = [("231", "312"), ("132", "213"), ("321",), ("123",)]
    out = [
        _q("oracle-count", f"count --engine oracle --pattern {rng.choice(c)} --n {n}")
        for c in classes
    ]
    pair = rng.choice(["231,321", "312,321"])
    out.append(_q("oracle-pair", f"count --engine oracle --pattern {pair} --n {n}"))
    form = rng.choice(["312", "231"])
    out.append(
        _q(
            "oracle-form-pool",
            f"count --engine oracle --pattern 321 --form {form} --n {n_form}",
        ).with_jobs(jobs)
    )
    pattern = rng.choice(["132", "213"])
    out.append(_q("oracle-enumerate", f"enumerate --pattern {pattern} --n {n}"))
    return out


def _formula_ladder(rng: random.Random, tiny: bool) -> list[Query]:
    def hi(n: int) -> int:
        return 2 if tiny else n

    twin132 = rng.choice([("132", "312"), ("213", "231")])
    return [
        _q("ladder-132", f"count --pattern {rng.choice(['132', '213'])} --n 1..{hi(20)}"),
        _q(
            "ladder-132-form",
            f"count --pattern {twin132[0]} --form {twin132[1]} --n 1..{hi(20)}",
        ),
        _q("ladder-321", f"count --pattern 321 --n 1..{hi(10)}"),
        _q("hpoly", f"hpoly --n {hi(10)}"),
        _q("ladder-231", f"count --pattern {rng.choice(['231', '312'])} --n 1..{hi(30)}"),
        _q(
            "ladder-321-form",
            f"count --pattern 321 --form {rng.choice(['312', '231'])} --n 1..{hi(30)}",
        ),
        _q("series-A", f"series --which A --order {2 if tiny else 150}"),
        _q("series-B", f"series --which B --order {2 if tiny else 150}"),
    ]


def _verify_suite(rng: random.Random, tiny: bool) -> list[Query]:
    plain = _q("verify", f"verify --max-n {2 if tiny else 4}")
    return [plain, Query("verify-pool", plain.with_jobs(pool_jobs()).argv)]


_BUILDERS = {
    "oracle-exhaustive": _oracle_exhaustive,
    "formula-ladder": _formula_ladder,
    "verify-suite": _verify_suite,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Query]:
    """The query list of ``workload`` for ``seed``, in run order.  ``tiny``
    keeps the query kinds but uses n <= 2, for the benchmark's self-tests."""
    rng = random.Random(f"{workload}:{seed}")
    queries = _BUILDERS[workload](rng, tiny)
    rng.shuffle(queries)
    return queries
