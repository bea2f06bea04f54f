"""Spans and counters around the public functions of each threecycle module.

The tracer rebinds module and class attributes to wrappers, from outside
the program.  Every call that looks a function up through its module at
call time goes through the wrapper: ``oracle.oracle_count`` from the CLI,
``count_all312`` from inside ``avoid132``, and so on.  The benchmark
installs it only in a forked child that runs one query, so its own process
stays untraced.

Three kinds of boundary are recorded:

* a span (query id, span id, parent id, name, start, end) for calls made a
  few times per query.  Its self time is its busy time minus its child spans
  and timed hot calls.  A generator span (``oracle_enumerate``) is busy only
  inside ``next()``, so the time the CLI spends printing each member stays
  with the CLI;
* a timed hot call (``perm.avoids``, ``h_of_tset``, ``dyck_stats``,
  ``avoid231.encode``): a count and summed time, no span, and the time is
  charged to the enclosing span as child time.  A hot function must not
  call a span function, or that time would be subtracted twice;
* a counted boundary (generator yields, series multiplications): a count
  only.

Spans inside pool workers (``--jobs > 1``) are not collected: the parent's
``oracle.pool`` span stands for them.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from time import perf_counter

POOL_NOTE = (
    "spans inside pool workers (--jobs > 1) are not collected;"
    " oracle.pool_s is the parent-side wall of those calls"
)
LEAVES_NOTE = (
    "kernels.star_leaves_per_s is computed, not counted: star_cardinality(n),"
    " divided by 2^n when a form is fixed, per second of kernel time"
)

SPAN, GEN_SPAN, HOT, YIELDS, CALLS = "span", "gen_span", "hot", "yields", "calls"

# (module, attribute path, boundary kind, metric prefix)
BOUNDARIES = (
    ("cli", "main", SPAN, "cli.main"),
    ("oracle", "oracle_count", SPAN, "oracle.oracle_count"),
    ("oracle", "oracle_enumerate", GEN_SPAN, "oracle.oracle_enumerate"),
    ("oracle", "avoidance_profile", SPAN, "oracle.avoidance_profile"),
    ("_kernels", "count_avoiders", SPAN, "kernels.count_avoiders"),
    ("_kernels", "avoidance_profile", SPAN, "kernels.avoidance_profile"),
    ("_kernels", "h_of_tset", HOT, "kernels.h_of_tset"),
    ("perm", "iterate_star", YIELDS, "perm.iterate_star"),
    ("perm", "avoids", HOT, "perm.avoids"),
    ("avoid231", "encode", HOT, "avoid231.encode"),
    ("avoid132", "count_132", SPAN, "avoid132.count_132"),
    ("avoid132", "count_all312", SPAN, "avoid132.count_all312"),
    ("avoid321", "count_321_via_dyck", SPAN, "avoid321.count_321_via_dyck"),
    ("avoid321", "h_polynomial", SPAN, "avoid321.h_polynomial"),
    ("avoid321", "dyck_stats", HOT, "avoid321.dyck_stats"),
    ("avoid321", "count_321_via_tsets", SPAN, "avoid321.count_321_via_tsets"),
    ("avoid321", "dyck_identity_check", SPAN, "avoid321.dyck_identity_check"),
    ("series", "series_A series_all312_avoiders", SPAN, "series.series_A"),
    ("series", "series_B series_132_avoiders", SPAN, "series.series_B"),
    ("series", "IntegerSeries.compose", SPAN, "series.compose"),
    ("series", "IntegerSeries.__mul__", CALLS, "series.mul"),
    ("words", "dyck_words", YIELDS, "words.dyck_words"),
)

# Per-layer metrics of one pass, with their units.  The trace-level ones
# (parallel speed-up, containment probe, overhead) are added by run.py.
UNITS = {
    "cli.self_s": "s",
    "oracle.oracle_count_s": "s",
    "oracle.oracle_enumerate_s": "s",
    "oracle.avoidance_profile_s": "s",
    "oracle.pool_s": "s",
    "oracle.parallel_speedup": "ratio",
    "oracle.hit_ratio": "ratio",
    "kernels.count_avoiders_s": "s",
    "kernels.count_avoiders_calls": "count",
    "kernels.avoidance_profile_s": "s",
    "kernels.h_of_tset_s": "s",
    "kernels.h_of_tset_calls": "count",
    "kernels.star_leaves_per_s": "1/s",
    "perm.iterate_star_yields": "count",
    "perm.avoids_calls": "count",
    "perm.avoids_s": "s",
    "perm.contains_per_s": "1/s",
    "avoid231.encode_calls": "count",
    "avoid231.encode_s": "s",
    "avoid132.count_132_s": "s",
    "avoid132.count_all312_s": "s",
    "avoid321.count_321_via_dyck_s": "s",
    "avoid321.h_polynomial_s": "s",
    "avoid321.dyck_stats_calls": "count",
    "avoid321.dyck_stats_s": "s",
    "avoid321.count_321_via_tsets_s": "s",
    "avoid321.dyck_identity_check_s": "s",
    "series.series_A_s": "s",
    "series.series_B_s": "s",
    "series.compose_s": "s",
    "series.mul_calls": "count",
    "words.dyck_words_yields": "count",
    "trace.overhead_s": "s",
}


def _jobs(args: tuple, kwargs: dict) -> int:
    return kwargs.get("jobs", args[1] if len(args) > 1 else 1)


def _leaves(args: tuple, kwargs: dict) -> int:
    """Star permutations a kernel sweep visits.  Kernel calls that fix the
    first cycle run only in pool workers, which are not traced."""
    n = args[0]
    form = args[2] if len(args) > 2 else kwargs.get("form")
    leaves = math.factorial(3 * n) // (math.factorial(n) * 3**n)
    return leaves >> n if form is not None else leaves


class Tracer:
    """The spans and counters of one query."""

    def __init__(self, query_id: int):
        self.query_id = query_id
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.counts: Counter = Counter()
        self.hot_s: Counter = Counter()

    def install(self, package) -> None:
        """Wrap every boundary of ``package`` (the imported ``threecycle``)."""
        import importlib

        for module_name, attrs, kind, name in BOUNDARIES:
            module = importlib.import_module(f"{package.__name__}.{module_name}")
            first = attrs.split()[0]
            owner, _, attr = first.rpartition(".")
            target = getattr(module, owner) if owner else module
            wrap = {
                SPAN: self._span,
                GEN_SPAN: self._gen_span,
                HOT: self._hot,
                YIELDS: self._yields,
                CALLS: self._calls,
            }[kind]
            wrapper = wrap(name, getattr(target, attr))
            for alias in attrs.split():
                setattr(target, alias.rpartition(".")[2], wrapper)

    def _open(self, name: str) -> dict:
        span = {
            "query": self.query_id,
            "id": len(self.spans),
            "parent": self.stack[-1]["id"] if self.stack else None,
            "name": name,
            "start": None,
            "end": None,
            "busy": 0.0,
            "child": 0.0,
        }
        self.spans.append(span)
        return span

    def _charge(self, span: dict, t0: float, t1: float) -> None:
        if span["start"] is None:
            span["start"] = t0
        span["end"] = t1
        span["busy"] += t1 - t0
        if self.stack:
            self.stack[-1]["child"] += t1 - t0

    def _span(self, name: str, fn):
        pool_name = "oracle.pool" if name.startswith("oracle.") else None
        leaves = name.startswith("kernels.")

        def wrapper(*args, **kwargs):
            label = pool_name if pool_name and _jobs(args, kwargs) > 1 else name
            if leaves:
                self.counts["kernels.leaves"] += _leaves(args, kwargs)
            span = self._open(label)
            self.stack.append(span)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self._charge(span, t0, t1)

        return wrapper

    def _gen_span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span = self._open(name)
            try:
                while True:
                    self.stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        t1 = perf_counter()
                        self.stack.pop()
                        self._charge(span, t0, t1)
                    self.counts[name + "_yields"] += 1
                    yield item
            finally:
                gen.close()

        return wrapper

    def _hot(self, name: str, fn):
        counts, hot_s, stack = self.counts, self.hot_s, self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                counts[name] += 1
                hot_s[name] += dt
                if stack:
                    stack[-1]["child"] += dt

        return wrapper

    def _yields(self, name: str, fn):
        counts, key = self.counts, name + "_yields"

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _calls(self, name: str, fn):
        counts, key = self.counts, name + "_calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "hot_s": dict(self.hot_s)}


def pass_metrics(exports: list[dict]) -> tuple[dict[str, float], Counter]:
    """Per-layer metrics of one pass over a workload's queries, and the calls
    seen per layer (spans, hot calls and counted boundaries together)."""
    self_s: Counter = Counter()
    busy: Counter = Counter()
    spans: Counter = Counter()
    counts: Counter = Counter()
    hot_s: Counter = Counter()
    for e in exports:
        for s in e["spans"]:
            self_s[s["name"]] += s["busy"] - s["child"]
            busy[s["name"]] += s["busy"]
            spans[s["name"]] += 1
        counts.update(e["counts"])
        hot_s.update(e["hot_s"])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    kernel_s = busy["kernels.count_avoiders"] + busy["kernels.avoidance_profile"]
    m = {
        "cli.self_s": self_s["cli.main"],
        "oracle.oracle_count_s": self_s["oracle.oracle_count"],
        "oracle.oracle_enumerate_s": self_s["oracle.oracle_enumerate"],
        "oracle.avoidance_profile_s": self_s["oracle.avoidance_profile"],
        "oracle.pool_s": self_s["oracle.pool"],
        "oracle.hit_ratio": ratio(
            counts["oracle.oracle_enumerate_yields"], counts["perm.iterate_star_yields"]
        ),
        "kernels.count_avoiders_s": self_s["kernels.count_avoiders"],
        "kernels.count_avoiders_calls": spans["kernels.count_avoiders"],
        "kernels.avoidance_profile_s": self_s["kernels.avoidance_profile"],
        "kernels.h_of_tset_s": hot_s["kernels.h_of_tset"],
        "kernels.h_of_tset_calls": counts["kernels.h_of_tset"],
        "kernels.star_leaves_per_s": ratio(counts["kernels.leaves"], kernel_s),
        "perm.iterate_star_yields": counts["perm.iterate_star_yields"],
        "perm.avoids_calls": counts["perm.avoids"],
        "perm.avoids_s": hot_s["perm.avoids"],
        "avoid231.encode_calls": counts["avoid231.encode"],
        "avoid231.encode_s": hot_s["avoid231.encode"],
        "avoid132.count_132_s": self_s["avoid132.count_132"],
        "avoid132.count_all312_s": self_s["avoid132.count_all312"],
        "avoid321.count_321_via_dyck_s": self_s["avoid321.count_321_via_dyck"],
        "avoid321.h_polynomial_s": self_s["avoid321.h_polynomial"],
        "avoid321.dyck_stats_calls": counts["avoid321.dyck_stats"],
        "avoid321.dyck_stats_s": hot_s["avoid321.dyck_stats"],
        "avoid321.count_321_via_tsets_s": self_s["avoid321.count_321_via_tsets"],
        "avoid321.dyck_identity_check_s": self_s["avoid321.dyck_identity_check"],
        "series.series_A_s": self_s["series.series_A"],
        "series.series_B_s": self_s["series.series_B"],
        "series.compose_s": self_s["series.compose"],
        "series.mul_calls": counts["series.mul_calls"],
        "words.dyck_words_yields": counts["words.dyck_words_yields"],
    }
    layer_calls: Counter = Counter()
    for name, k in list(spans.items()) + list(counts.items()):
        if name != "kernels.leaves":
            layer_calls[name.split(".")[0]] += k
    return m, layer_calls


def merge_passes(passes: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each metric over the passes, and the count metrics that did
    not repeat exactly (a count must not depend on timing)."""
    merged, unstable = {}, []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if UNITS[name] == "count":
            if len(set(values)) > 1:
                unstable.append(f"{name} differs between passes: {values}")
            merged[name] = values[0]
        else:
            merged[name] = statistics.median(values)
    return merged, unstable
