"""The exhaustive oracle: enumeration, counting, limits, parallel merging,
and the degenerate closed forms."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import (
    PATTERN_SETS,
    cycle_lengths,
    mark_members,
    naive_contains,
    select,
)
from threecycle import _kernels, cli, oracle, perm
from threecycle.errors import ResourceLimitError

# the src imported above, so that a subprocess runs the code under test
SRC = Path(oracle.__file__).parent.parent

ALL_PATTERNS = [tuple(p) for p in itertools.permutations((1, 2, 3))]


class TestQueries:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            oracle.AvoidanceQuery(0, frozenset({(2, 3, 1)}))
        with pytest.raises(ValueError, match="pattern set must be non-empty"):
            oracle.AvoidanceQuery(1, frozenset())
        # the pattern table's one check, for a length or a repeated value
        for sigma in [(1, 2, 3, 4), (1, 1, 2)]:
            with pytest.raises(ValueError, match="patterns must have length 3"):
                oracle.AvoidanceQuery(1, frozenset({(2, 3, 1), sigma}))
        with pytest.raises(ValueError, match="form must be one of"):
            oracle.AvoidanceQuery(1, frozenset({(2, 3, 1)}), form="213")

    def test_query_helper(self):
        q = oracle.query(3, "231")
        assert q.n == 3 and q.patterns == frozenset({(2, 3, 1)})
        q = oracle.query(2, ["132", "213"], form="312")
        assert q.patterns == frozenset({(1, 3, 2), (2, 1, 3)})

    @pytest.mark.parametrize("name", ["１２３", "12", "1234", "113", "0123"])
    def test_query_refuses_what_the_cli_refuses(self, name, capsys):
        # the query and the CLI read one name table, and refuse a name that
        # is not one of the six with the same message
        with pytest.raises(ValueError, match="patterns must have length 3") as exc:
            oracle.query(2, name)
        argv = ["count", "--engine", "oracle", "--pattern", name, "--n", "2"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"usage error: {exc.value}\n"


class TestEnumerate:
    def test_n1_single_pattern(self):
        got = list(oracle.oracle_enumerate(oracle.query(1, "231")))
        assert got == [(3, 1, 2)]

    def test_all312_132_avoiders_n2(self):
        got = list(oracle.oracle_enumerate(oracle.query(2, "132", form="312")))
        assert len(got) == 3
        assert (5, 6, 1, 2, 3, 4) in got

    def test_321_avoiders_n2(self):
        got = list(oracle.oracle_enumerate(oracle.query(2, "321")))
        assert len(got) == 10

    def test_order_matches_generator_filter(self):
        q = oracle.query(2, "321")
        expected = [
            p for p in perm.iterate_star(2) if not perm.contains_pattern(p, (3, 2, 1))
        ]
        assert list(oracle.oracle_enumerate(q)) == expected
        assert list(oracle.oracle_enumerate(q)) == list(oracle.oracle_enumerate(q))

    def test_pruned_walk_matches_filtered_stream(self):
        # every pattern set and form: the pruned enumeration is the unpruned
        # stream filtered by a naive scan, in the same order
        for n in (1, 2, 3):
            marked = mark_members(perm.iterate_star(n))
            for patterns in PATTERN_SETS:
                for form in _kernels.FORMS:
                    want = select(marked, patterns, form)
                    q = oracle.AvoidanceQuery(n, frozenset(patterns), form)
                    assert list(oracle.oracle_enumerate(q)) == want, q
                    assert oracle.oracle_count(q) == len(want), q


class TestCount:
    def test_table_examples(self):
        assert oracle.oracle_count(oracle.query(3, "231")) == 9
        assert oracle.oracle_count(oracle.query(4, "132")) == 170
        assert oracle.oracle_count(oracle.query(2, "123")) == 6

    def test_count_equals_enumeration_length(self):
        for n in (1, 2, 3):
            for name in ("231", "132", "321"):
                q = oracle.query(n, name)
                assert oracle.oracle_count(q) == len(list(oracle.oracle_enumerate(q)))

    def test_symmetry_of_counts(self):
        for n in (1, 2, 3):
            for sigma in ALL_PATTERNS:
                base = oracle.oracle_count(oracle.AvoidanceQuery(n, frozenset({sigma})))
                for image in (perm.inverse(sigma), perm.reverse_complement(sigma)):
                    other = oracle.oracle_count(
                        oracle.AvoidanceQuery(n, frozenset({image}))
                    )
                    assert other == base

    def test_twin_routed_count_matches_unrouted_walk(self):
        # the single pattern 132 is counted as its twin 213; the kernel sum
        # over the root partner pairs is the count of the set itself
        for n in (1, 2, 3):
            for patterns in PATTERN_SETS:
                for form in (None, perm.FORM_312, perm.FORM_231):
                    q = oracle.AvoidanceQuery(n, frozenset(patterns), form)
                    unrouted = sum(
                        oracle._kernels.count_avoiders(n, patterns, form, pair)
                        for pair in oracle._kernels.star_pairs(n)
                    )
                    assert oracle.oracle_count(q) == unrouted, (n, patterns, form)

    def test_parallel_merge_schedule_independent(self):
        q = oracle.query(3, "321")
        serial = oracle.oracle_count(q)
        assert oracle.oracle_count(q, jobs=2) == serial
        assert oracle.oracle_count(q, jobs=3) == serial

    def _profile_agrees_with_counts(self, ns):
        # every query, all 63 pattern sets under each form: the pruned
        # count's rules (dead cells, live pairs, form bits, the 132 twin,
        # halving) against the profile's walk, which marks dead cells per
        # pattern and never prunes
        for n in ns:
            table = oracle.avoidance_profile(n)
            for patterns in PATTERN_SETS:
                for form in _kernels.FORMS:
                    q = oracle.AvoidanceQuery(n, frozenset(patterns), form)
                    want = oracle.profile_count(table, patterns, form)
                    assert oracle.oracle_count(q) == want, (n, patterns, form)

    def test_profile_agrees_with_counts(self):
        self._profile_agrees_with_counts((1, 2, 3, 4))

    @pytest.mark.skipif(
        not os.environ.get("RUN_N5"),
        reason="189 walks at n=5 take seconds, opt in with RUN_N5=1",
    )
    def test_profile_agrees_with_counts_n5(self):
        self._profile_agrees_with_counts((5,))

    @pytest.mark.parametrize("pattern", [(1, 2), (1, 2, 4), (3, 2, 1, 4)])
    def test_profile_count_refuses_malformed_pattern(self, pattern):
        # the shared mask rule, not a KeyError from a private lookup
        table = oracle.avoidance_profile(1)
        with pytest.raises(ValueError, match="patterns must have length 3"):
            oracle.profile_count(table, [(3, 2, 1), pattern])

    def test_profile_count_refuses_unknown_form(self):
        table = oracle.avoidance_profile(1)
        with pytest.raises(ValueError, match="form must be one of"):
            oracle.profile_count(table, [(3, 2, 1)], "213")

    def test_profile_parallel_merge(self):
        assert oracle.avoidance_profile(2, jobs=2) == oracle.avoidance_profile(2)

    def test_profiles_parallel_merge_per_n(self):
        # every n's parts come back on one pool and merge into its own table,
        # in the order of the range
        want = [oracle.avoidance_profile(n) for n in (1, 2, 3)]
        assert oracle.avoidance_profile(range(1, 4), jobs=2) == want
        assert oracle.avoidance_profile(range(1, 4)) == want
        assert oracle.avoidance_profile(range(1, 4, 2)) == want[::2]

    def test_profiles_refuse_bad_sizes(self):
        for ns in (range(0), range(0, 3), 0):
            with pytest.raises(ValueError, match="n must be >= 1"):
                oracle.avoidance_profile(ns)
        for ns in (range(1, 8), 7):
            with pytest.raises(ResourceLimitError, match="n <= 6"):
                oracle.avoidance_profile(ns)


class TestWorkers:
    @pytest.fixture
    def forks(self, monkeypatch):
        """The number of workers each fan-out forked, for each fan-out that
        forked any; the workers really fork, as many as the CPU count (set
        to 4) and the tasks allow."""
        real_fork, real_fan_out = os.fork, oracle._fan_out
        forked = [0]
        counts = []

        def counting_fork():
            forked[0] += 1
            return real_fork()

        def recording(*args):
            forked[0] = 0
            try:
                return real_fan_out(*args)
            finally:
                if forked[0]:
                    counts.append(forked[0])

        monkeypatch.setattr(oracle.os, "fork", counting_fork)
        monkeypatch.setattr(oracle, "_fan_out", recording)
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
        return counts

    def test_pool_bounded_by_cpus_and_tasks(self, forks):
        q = oracle.query(2, "321")
        serial = oracle.oracle_count(q)
        # 10 partner-pair tasks at n = 2, 4 CPUs, and this process is one of
        # the workers; the 1 task at n = 1 runs in this process alone
        assert oracle.oracle_count(q, jobs=100000) == serial
        assert oracle.oracle_count(q, jobs=3) == serial
        assert oracle.oracle_count(oracle.query(1, "321"), jobs=100000) == 2
        assert oracle.avoidance_profile(2, jobs=100000) == oracle.avoidance_profile(2)
        assert oracle.avoidance_profile(1, jobs=100000) == oracle.avoidance_profile(1)
        assert forks == [3, 2, 3]

    def test_verify_sweeps_every_n_on_one_pool(self, forks, capsys):
        # 1 + 10 + 28 partner-pair tasks for n = 1..3 in one fan-out of 2
        tables = oracle.avoidance_profile(range(1, 4), jobs=2)
        assert tables == [oracle.avoidance_profile(n) for n in range(1, 4)]
        assert forks == [1]
        assert cli.main(["verify", "--max-n", "3", "--jobs", "2"]) == 0
        assert forks == [1, 1]
        assert capsys.readouterr().out.endswith("PASS\n")

    @pytest.mark.parametrize(
        "name,rest",
        [("count_avoiders", (((3, 2, 1),), None)), ("avoidance_profile", ())],
        ids=["count", "profile"],
    )
    def test_one_task_list_whatever_the_jobs(self, name, rest, forks, tmp_path):
        # one kernel call per root partner pair, each made once: in star_pairs
        # order in this process at jobs=1, and at jobs=2 the even-numbered
        # tasks here and the odd-numbered ones in the forked worker, with the
        # same parts.  The kernel passed in logs its calls to a file, which
        # both processes append to.
        real = getattr(oracle._kernels, name)
        log = tmp_path / "calls"

        def recording(n, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {n} {args[-1][0]} {args[-1][1]}\n")
            return real(n, *args)

        def calls():
            lines = [line.split() for line in log.read_text().splitlines()]
            log.unlink()
            return [(int(pid), (int(n), (int(b), int(c)))) for pid, n, b, c in lines]

        pairs = [(3, pair) for pair in oracle._kernels.star_pairs(3)]
        serial = oracle._fan_out(recording, [3], 1, *rest)
        assert calls() == [(os.getpid(), task) for task in pairs]
        assert forks == []
        assert oracle._fan_out(recording, [3], 2, *rest) == serial
        assert forks == [1]
        made = calls()
        here = [task for pid, task in made if pid == os.getpid()]
        (child,) = {pid for pid, _ in made} - {os.getpid()}
        assert here == pairs[::2]
        assert [task for pid, task in made if pid == child] == pairs[1::2]

    def test_count_range_runs_on_one_pool(self, forks, capsys):
        # 1 + 10 + 28 partner-pair tasks for n = 1..3 in one fan-out of 2,
        # with the stdout of the run in this process
        argv = ["count", "--engine", "oracle", "--pattern", "321", "--n", "1..3"]
        assert cli.main(argv) == 0
        serial = capsys.readouterr().out
        assert forks == []
        assert cli.main([*argv, "--jobs", "2"]) == 0
        assert forks == [1]
        assert capsys.readouterr().out == serial == "2 10 60\n"

    def test_one_cpu_runs_in_process(self, forks, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 1)
        assert oracle.oracle_count(oracle.query(2, "321"), jobs=2) == 10
        assert oracle.avoidance_profile(2, jobs=2) == oracle.avoidance_profile(2)
        assert forks == []

    def test_no_fork_runs_in_process(self, forks, monkeypatch):
        # where processes cannot fork, every share is this process's
        monkeypatch.delattr(oracle.os, "fork")
        assert oracle._workers(4, 10) == 1
        assert oracle.oracle_count(oracle.query(2, "321"), jobs=4) == 10
        assert forks == []

    def test_jobs_below_one_rejected(self, forks):
        for jobs in (0, -1):
            with pytest.raises(ValueError, match="jobs"):
                oracle.oracle_count(oracle.query(2, "321"), jobs=jobs)
            with pytest.raises(ValueError, match="jobs"):
                oracle.avoidance_profile(2, jobs=jobs)
        assert forks == []


def no_children_left():
    """True when this process has no child, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def run_python(code, *flags):
    # stdout to a pipe is block-buffered, unless the environment says not to
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(env, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestFanOut:
    """The forked workers: their failures surface in the caller, and they
    leave no process and no stray output behind."""

    @pytest.fixture(autouse=True)
    def four_cpus(self, monkeypatch):
        monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)

    def test_child_exception_raised_in_caller(self, monkeypatch):
        parent = os.getpid()
        real = oracle._kernels.count_avoiders

        def failing(n, *args):
            if os.getpid() != parent:
                raise ArithmeticError(f"worker failed at n={n}")
            return real(n, *args)

        monkeypatch.setattr(oracle._kernels, "count_avoiders", failing)
        with pytest.raises(ArithmeticError, match=r"^worker failed at n=3$"):
            oracle.oracle_count(oracle.query(3, "321"), jobs=3)
        assert no_children_left()

    def test_worker_dying_without_a_result_is_an_error(self, monkeypatch):
        parent = os.getpid()
        real = oracle._kernels.count_avoiders

        def dying(n, *args):
            if os.getpid() != parent:
                os._exit(3)
            return real(n, *args)

        monkeypatch.setattr(oracle._kernels, "count_avoiders", dying)
        with pytest.raises(RuntimeError, match=r"sent no result \(exit 3\)"):
            oracle.oracle_count(oracle.query(3, "321"), jobs=3)
        assert no_children_left()

    def test_interrupt_in_callers_share_kills_workers(self, monkeypatch):
        # the workers would sleep for half a minute; the caller's share is
        # interrupted at once, and the workers are killed and reaped
        parent = os.getpid()

        def interrupted(n, *args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(30)
            raise AssertionError("a worker outlived the interrupt")

        monkeypatch.setattr(oracle._kernels, "avoidance_profile", interrupted)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            oracle.avoidance_profile(3, jobs=3)
        assert time.perf_counter() - start < 20
        assert no_children_left()

    def test_no_process_left_after_a_run(self):
        want = oracle.avoidance_profile(3)
        assert oracle.avoidance_profile(3, jobs=2) == want
        assert no_children_left()

    def test_unflushed_output_printed_once(self):
        # stdout is a pipe, so "before" is still in this process's buffer
        # when the workers fork; a worker that flushed its copy would print
        # it twice
        code = (
            "import os, sys; os.cpu_count = lambda: 2\n"
            "from threecycle import cli\n"
            "sys.stdout.write('before\\n')\n"
            "argv = ['count', '--engine', 'oracle', '--pattern', '321']\n"
            "sys.exit(cli.main([*argv, '--n', '1..4', '--jobs', '2']))\n"
        )
        proc = run_python(code)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == "before\n2 10 60 388\n"

    def test_forked_run_loads_no_pool_machinery(self):
        # -S: no site module, so no .pth file can load these ahead of the run
        code = (
            "import os, sys; os.cpu_count = lambda: 2\n"
            "from threecycle import cli\n"
            "argv = ['count', '--engine', 'oracle', '--pattern', '321']\n"
            "cli.main([*argv, '--n', '3', '--jobs', '2'])\n"
            "wanted = {'concurrent.futures', 'multiprocessing', 'pickle'}\n"
            "print(*sorted(wanted & set(sys.modules)))\n"
        )
        proc = run_python(code, "-S")
        assert (proc.returncode, proc.stderr) == (0, "")
        # pickle shows that the run forked
        assert proc.stdout == "60\npickle\n"


class TestLimits:
    def test_hard_limit_refusal(self):
        with pytest.raises(ResourceLimitError, match="n <= 6"):
            oracle.oracle_count(oracle.query(7, "321"))

    def test_enumerate_respects_limits(self):
        with pytest.raises(ResourceLimitError):
            next(oracle.oracle_enumerate(oracle.query(7, "321")))

    def test_bound_itself_is_allowed(self):
        # the check alone: no n = 6 walk runs here
        assert oracle.WALK_LIMIT == 6
        oracle.check_limits(oracle.WALK_LIMIT)


class TestClosedForms:
    def test_123_values(self):
        assert oracle.closed_form_123(1) == 2
        assert oracle.closed_form_123(2) == 6
        assert oracle.closed_form_123(3) == 0
        assert oracle.closed_form_123(7) == 0
        with pytest.raises(ValueError, match="n must be >= 1"):
            oracle.closed_form_123(0)

    def test_123_matches_oracle(self):
        for n in (1, 2, 3):
            q = oracle.query(n, "123")
            assert oracle.closed_form_123(n) == oracle.oracle_count(q)

    def test_pair_examples(self):
        assert oracle.closed_form_pair(5, ((1, 3, 2), (2, 1, 3))) == 2
        assert oracle.closed_form_pair(5, ((2, 3, 1), (3, 2, 1))) == 1
        assert oracle.closed_form_pair(3, ((1, 2, 3), (3, 2, 1))) == 0

    def test_pair_rejects_duplicates(self):
        with pytest.raises(ValueError):
            oracle.closed_form_pair(3, ((1, 3, 2), (1, 3, 2)))
        with pytest.raises(ValueError, match="n must be >= 1"):
            oracle.closed_form_pair(0, ((1, 3, 2), (2, 1, 3)))
        # n = 1 has its own count, but the patterns are checked before it
        with pytest.raises(ValueError, match="patterns must have length 3"):
            oracle.closed_form_pair(1, [(1, 2), (3, 2, 1)])

    def test_all_pairs_match_oracle(self):
        for n in (1, 2, 3):
            table = oracle.avoidance_profile(n)
            for pair in itertools.combinations(ALL_PATTERNS, 2):
                want = oracle.closed_form_pair(n, pair)
                assert want == oracle.profile_count(table, pair), (n, pair)

    def test_small_pairs_are_closed_forms(self, monkeypatch):
        # at n = 1, 2 the closed form answers without a walk, and agrees
        # with the walk for every pair
        pairs = list(itertools.combinations(ALL_PATTERNS, 2))
        walk = oracle.oracle_count

        def no_walk(*args, **kwargs):
            raise AssertionError("closed_form_pair ran the oracle")

        monkeypatch.setattr(oracle, "oracle_count", no_walk)
        monkeypatch.setattr(oracle._kernels, "star_walk", no_walk)
        closed = {
            (n, pair): oracle.closed_form_pair(n, pair)
            for n in (1, 2)
            for pair in pairs
        }
        monkeypatch.undo()
        for (n, pair), value in closed.items():
            assert value == walk(oracle.AvoidanceQuery(n, frozenset(pair))), (n, pair)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_pair_members_keep_their_masks(self, n):
        # the four families of closed_form_pair's docstring, each followed by
        # its inverse, are eight distinct 3-cycle-only members whose
        # avoidance masks are the ones the pair counts are read from; n = 7
        # is past the oracle's bound
        families = [
            [(3 * i - 2, 3 * i - 1, 3 * i) for i in range(1, n + 1)],
            [(i, n + i, 2 * n + i) for i in range(1, n + 1)],
            [(i, n + i, 3 * n + 1 - i) for i in range(1, n + 1)],
            [(i, 2 * n + 1 - i, 3 * n + 1 - i) for i in range(1, n + 1)],
        ]
        members = []
        for cycles in families:
            p = [0] * (3 * n)
            for a, b, c in cycles:
                p[a - 1], p[b - 1], p[c - 1] = b, c, a
            inv = [0] * (3 * n)
            for i, v in enumerate(p, 1):
                inv[v - 1] = i
            members += [tuple(p), tuple(inv)]
        assert len(set(members)) == 8
        assert all(cycle_lengths(p) == [3] * n for p in members)
        masks = tuple(
            sum(
                1 << i
                for i, sigma in enumerate(ALL_PATTERNS)
                if not naive_contains(p, sigma)
            )
            for p in members
        )
        assert tuple(ALL_PATTERNS) == oracle._kernels.PROFILE_PATTERNS
        assert masks == oracle._PAIR_MEMBER_MASKS

    def test_symmetric_pairs_share_values(self):
        # the closed form must be constant on symmetry orbits of pairs
        for pair in itertools.combinations(ALL_PATTERNS, 2):
            value = oracle.closed_form_pair(4, pair)
            for f in (perm.inverse, perm.reverse_complement):
                image = tuple(f(sigma) for sigma in pair)
                assert oracle.closed_form_pair(4, image) == value
