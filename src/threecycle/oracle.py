"""Brute-force ground truth: exhaustive counting and enumeration of
pattern-avoiding 3-cycle-only permutations, plus the degenerate closed forms
(the 123 pattern and pattern pairs).

Counts and enumerations are an exact pruned walk over the star set
(``_kernels.star_walk``): a branch is dropped as soon as the entries placed
so far contain an avoided pattern, found by one linear containment scan per
node.  That loses no member, since a placed entry never changes, so an
occurrence among the placed entries is one in every permutation below them.
The avoidance profile runs the same walk unpruned and drops a subtree whose
placed entries already contain all six patterns, whose members it counts in
column 0 by subtraction (``_kernels.avoidance_profile``).  Counts and profiles walk only the members
whose root cycle is 1 -> b -> c: their inverses are the members with root
1 -> c -> b, and a permutation contains a pattern exactly when its inverse
contains the pattern's inverse, so the other half is read off the walked one.
No counting shortcut from the formula modules is consulted, so these results
can serve as the independent side of every formula-vs-oracle check.

Sizes are bounded by one constant, n <= WALK_LIMIT, checked before any
work; no flag lifts it (the star set grows by a factor ~270 per step).
Every count and profile of one or several n runs as one task list, a task
per n and root partner pair (b, c) covering both orientations, shared out
over at most as many workers as there are tasks or CPUs, whatever ``jobs``
asks for.  This process is one of the workers, and the others are forked
children that send their results back through a pipe (``_fan_out``); only a
run that forks imports ``pickle``.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from typing import BinaryIO, Iterator, NamedTuple, Sequence

from threecycle import _kernels, perm
from threecycle.errors import ResourceLimitError

WALK_LIMIT = 6

FORMS = (None, perm.FORM_312, perm.FORM_231)


class _AvoidanceQueryFields(NamedTuple):
    n: int
    patterns: frozenset[perm.Perm]
    form: str | None = None


class AvoidanceQuery(_AvoidanceQueryFields):
    """A counting/enumeration request: size parameter ``n``, a non-empty set
    of distinct length-3 patterns, and an optional restriction of every cycle
    to one form ("312" or "231"; None means unrestricted)."""

    __slots__ = ()

    def __new__(
        cls, n: int, patterns: frozenset[perm.Perm], form: str | None = None
    ) -> AvoidanceQuery:
        if n < 1:
            raise ValueError("n must be >= 1")
        patterns = frozenset(tuple(p) for p in patterns)
        if not patterns:
            raise ValueError("pattern set must be non-empty")
        for sigma in patterns:
            perm.check_permutation(sigma)
            if len(sigma) != 3:
                raise ValueError(f"oracle patterns must have length 3: {sigma}")
        if form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {form!r}")
        return super().__new__(cls, n, patterns, form)

    @classmethod
    def _make(cls, iterable) -> AvoidanceQuery:
        # _replace builds through _make, which would skip the checks above
        return cls(*iterable)

    def sorted_patterns(self) -> tuple[perm.Perm, ...]:
        return tuple(sorted(self.patterns))


def query(n: int, patterns: str | Sequence[str], form: str | None = None) -> AvoidanceQuery:
    """Convenience constructor from pattern strings, e.g. ``query(3, "231")``
    or ``query(3, ["132", "213"])``."""
    if isinstance(patterns, str):
        patterns = [patterns]
    parsed = frozenset(tuple(int(ch) for ch in s) for s in patterns)
    return AvoidanceQuery(n, parsed, form)


def check_limits(n: int) -> None:
    """Refuse an exhaustive run at size ``n`` over WALK_LIMIT with
    ResourceLimitError."""
    if n > WALK_LIMIT:
        raise ResourceLimitError(
            f"n={n} exceeds the bound n <= {WALK_LIMIT} "
            f"(the star set has {perm.star_cardinality(n)} members)"
        )


def oracle_enumerate(q: AvoidanceQuery) -> Iterator[perm.Perm]:
    """Every member of the star set matching ``q``, in the deterministic order
    of the direct generator, each exactly once."""
    check_limits(q.n)
    yield from perm.iterate_star(q.n, form=q.form, patterns=q.sorted_patterns())


def _workers(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` parallel tasks: ``jobs``, but never more
    than there are tasks or CPUs, so no request forks an unbounded number,
    and 1 where processes cannot fork.  Worker 0 is the caller itself."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not hasattr(os, "fork"):
        return 1
    return min(jobs, tasks, os.cpu_count() or 1)


def _task(args: tuple):
    name, *call = args
    return getattr(_kernels, name)(*call)


def _fork(share: list[tuple]) -> tuple[int, BinaryIO]:
    """Run ``share`` in a forked child; return its pid and the read end of
    the pipe that carries the pickled ``(ok, results or exception)``.  The
    child always leaves by ``os._exit``, so it never flushes or runs what
    it inherited from this process (buffered stdout, exit handlers)."""
    import pickle

    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(wfd)
        return pid, os.fdopen(rfd, "rb")
    status = 1
    try:
        os.close(rfd)
        try:
            result = (True, [_task(t) for t in share])
        except BaseException as exc:
            result = (False, exc)
        with os.fdopen(wfd, "wb") as fh:
            fh.write(pickle.dumps(result))
        status = 0
    finally:
        os._exit(status)


def _fan_out(name: str, ns: Sequence[int], jobs: int, *rest) -> list[list]:
    """For each n in ``ns``, the parts of ``_kernels.<name>(n, *rest, pair)``
    for each root partner pair: one task list, so any ``jobs`` makes the
    same calls.  Worker k of w runs tasks k, k + w, ...: worker 0 is this
    process, the others forked children (:func:`_fork`), read and reaped in
    turn once this process's share is done; a child's exception is raised
    here.  On any exception here, every child not yet reaped is killed and
    reaped before it propagates.  The kernel is looked up by name when it
    runs, so a rebound attribute is the one called.  Sizes are checked, and
    refused over the bound, before any work."""
    if not ns or min(ns) < 1:
        raise ValueError("n must be >= 1")
    check_limits(max(ns))
    pairs = [_kernels.star_pairs(n) for n in ns]
    tasks = [(name, n, *rest, p) for n, ps in zip(ns, pairs) for p in ps]
    w = _workers(jobs, len(tasks))
    results: list = [None] * len(tasks)
    children: list[tuple[int, BinaryIO]] = []  # forked, not yet reaped
    if w > 1:
        import pickle  # only here: a run in one process never loads them
        import signal
    try:
        for k in range(1, w):
            children.append(_fork(tasks[k::w]))
        results[::w] = map(_task, tasks[::w])
        for k in range(1, w):
            pid, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            children.pop(0)
            if not payload:
                code = os.waitstatus_to_exitcode(status)
                raise RuntimeError(f"an oracle worker sent no result (exit {code})")
            ok, value = pickle.loads(payload)
            if not ok:
                raise value
            results[k::w] = value
    except BaseException:
        for pid, pipe in children:
            pipe.close()
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        raise
    parts = iter(results)
    return [list(itertools.islice(parts, len(ps))) for ps in pairs]


def oracle_count(q: AvoidanceQuery, jobs: int = 1) -> int:
    """Cardinality of :func:`oracle_enumerate`: :func:`oracle_counts` at q.n."""
    return oracle_counts([q.n], q.patterns, q.form, jobs)[0]


def oracle_counts(
    ns: Sequence[int],
    patterns: frozenset[perm.Perm],
    form: str | None = None,
    jobs: int = 1,
) -> list[int]:
    """The :func:`oracle_count` of each n in ``ns``, the pair parts merged by
    addition, so a count does not depend on the worker count or schedule.  A
    bad query is refused before a size over the bound, both before any work."""
    q = AvoidanceQuery(max(ns, default=0), patterns, form)
    parts = _fan_out("count_avoiders", ns, jobs, q.sorted_patterns(), q.form)
    return [sum(p) for p in parts]


def avoidance_profiles(ns: Sequence[int], jobs: int = 1) -> list[list[list[int]]]:
    """The :func:`avoidance_profile` table of each n in ``ns``, in order."""
    return [
        [[sum(cells) for cells in zip(*rows)] for rows in zip(*parts)]
        for parts in _fan_out("avoidance_profile", ns, jobs)
    ]


def avoidance_profile(n: int, jobs: int = 1) -> list[list[int]]:
    """One exhaustive sweep counting, for every (form class, avoidance mask)
    cell, the star permutations in it; see :func:`profile_count` for reading
    the table.  Much cheaper than one :func:`oracle_count` per query when many
    queries share the same ``n``."""
    return avoidance_profiles([n], jobs)[0]


def profile_count(
    table: list[list[int]],
    patterns: Sequence[perm.Perm],
    form: str | None = None,
) -> int:
    """Extract one avoidance count from an :func:`avoidance_profile` table;
    a pattern that is not a permutation of 1..3 raises ValueError."""
    required = _kernels.pattern_mask(patterns)
    if form is None:
        rows: tuple[int, ...] = (0, 1, 2)
    elif form == perm.FORM_312:
        rows = (1,)
    elif form == perm.FORM_231:
        rows = (2,)
    else:
        raise ValueError(f"form must be one of {FORMS}, got {form!r}")
    return sum(
        table[row][mask]
        for row in rows
        for mask in range(64)
        if mask & required == required
    )


def closed_form_123(n: int) -> int:
    """Avoiders of 123 among star permutations: 2, 6, then 0 forever."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 2
    if n == 2:
        return 6
    return 0


def _pattern_orbit(pair: frozenset[perm.Perm]) -> set[frozenset[perm.Perm]]:
    maps = (
        lambda s: s,
        perm.inverse,
        perm.reverse_complement,
        lambda s: perm.inverse(perm.reverse_complement(s)),
    )
    return {frozenset(f(sigma) for sigma in pair) for f in maps}


_PAIR_CLASS_VALUES = {
    frozenset({(1, 3, 2), (2, 1, 3)}): 2,
    frozenset({(1, 3, 2), (3, 2, 1)}): 2,
    frozenset({(1, 3, 2), (2, 3, 1)}): 1,
    frozenset({(2, 3, 1), (3, 2, 1)}): 1,
}


def closed_form_pair(n: int, pair: Sequence[perm.Perm] | frozenset[perm.Perm]) -> int:
    """Avoiders of a pair of length-3 patterns among star permutations.

    At n = 1 the two members are 231 = (1,2,3) and 312 = (1,3,2), and each
    avoids every pattern but itself, so the count is 2 minus the number of
    231 and 312 in the pair.

    At n = 2 the star set has 40 members.  The six 123-avoiders contain every
    other pattern, and only eight members avoid two or more patterns:

    ==================  ============  ==================  ============
    cycles              avoids        cycles              avoids
    ==================  ============  ==================  ============
    (1,2,3)(4,5,6)      312 321       (1,3,6)(2,4,5)      213 312
    (1,3,2)(4,6,5)      231 321       (1,6,3)(2,5,4)      213 231
    (1,3,5)(2,4,6)      132 213 321   (1,4,6)(2,3,5)      132 312
    (1,5,3)(2,6,4)      132 213 321   (1,6,4)(2,5,3)      132 231
    ==================  ============  ==================  ============

    Counting each pair among them gives the 15 values at n = 2: 0 for the
    five pairs with 123 and for {231, 312}; 2 for {132, 213}, {132, 321} and
    {213, 321}; 1 for {132, 231}, {132, 312}, {213, 231}, {213, 312},
    {231, 321} and {312, 321}.

    These are the values the pairs take for every n >= 3 as well, so for
    n >= 2 the pair is reduced by the inverse and reverse-complement
    symmetries to a representative class (values 2, 1 or 0).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pair_set = frozenset(tuple(sigma) for sigma in pair)
    if len(pair_set) != 2:
        raise ValueError("pair must contain exactly two distinct patterns")
    AvoidanceQuery(n, pair_set)  # validates the patterns
    if n == 1:
        return 2 - len(pair_set & {(2, 3, 1), (3, 1, 2)})
    for member in _pattern_orbit(pair_set):
        value = _PAIR_CLASS_VALUES.get(member)
        if value is not None:
            return value
    return 0
