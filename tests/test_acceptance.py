"""Acceptance suite: one test per criterion, each printing a pass line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to
see the lines inline).  The n=5 oracle sweep is gated behind RUN_N5=1, and
the n=6 verify run against its golden file behind RUN_N6=1.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from pathlib import Path

import pytest

from conftest import composition_sums_132
from threecycle import (
    _kernels,
    avoid132,
    avoid231,
    avoid321,
    cli,
    oracle,
    perm,
    series,
    words,
)

PATTERNS3 = [tuple(p) for p in itertools.permutations((1, 2, 3))]

TABLE = {
    "231": [1, 3, 9, 27, 81],
    "132": [2, 8, 36, 170, 824],
    "321": [2, 10, 60, 388, 2606],
    "123": [2, 6, 0, 0, 0],
}


class _Timer:
    def __init__(self, number: int, name: str, budget: float):
        self.number = number
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"criterion {self.number} ({self.name}): PASS in {elapsed:.2f}s")
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget "
                f"({elapsed:.2f}s)"
            )
        else:
            print(f"criterion {self.number} ({self.name}): FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_sequence_table():
    with _Timer(1, "sequence table", 10.0):
        for name, row in TABLE.items():
            sigma = tuple(int(ch) for ch in name)
            got = cli.formula_counts(range(1, 6), (sigma,), None)
            assert got == row, (name, got, row)


def _oracle_equivalence(ns, jobs=1):
    # the rows of the verify table that read the sweep: the single patterns,
    # the fifteen pairs and the three flagged subclasses
    swept = [check for check in cli.CHECKS if check.ns is None]
    tables = [oracle.avoidance_profile(n, jobs=jobs) for n in ns]
    for check in swept:
        for n, *at in zip(ns, *check.sides(ns, tables)):
            assert all(side == at[0] for side in at), (n, check.label, at)
    # spot-check the batched sweep against the per-query oracle
    for n, table in zip(ns, tables):
        if n <= 3:
            for sigma in PATTERNS3:
                q = oracle.AvoidanceQuery(n, frozenset({sigma}))
                assert oracle.profile_count(table, [sigma]) == oracle.oracle_count(q)


def test_criterion_2_oracle_equivalence():
    with _Timer(2, "oracle equivalence n<=4", 120.0):
        _oracle_equivalence(range(1, 5))


@pytest.mark.skipif(
    not os.environ.get("RUN_N5"),
    reason="n=5 oracle sweep takes seconds, opt in with RUN_N5=1",
)
def test_criterion_2_oracle_equivalence_n5():
    with _Timer(2, "oracle equivalence n=5", 300.0):
        _oracle_equivalence(range(5, 6), jobs=os.cpu_count() or 1)


@pytest.mark.skipif(
    not os.environ.get("RUN_N6"),
    reason="verify --max-n 6 takes about a minute, opt in with RUN_N6=1",
)
def test_verify_n6_golden(capsys):
    jobs = str(os.cpu_count() or 1)
    with _Timer(2, "verify --max-n 6", 600.0):
        assert cli.main(["verify", "--max-n", "6", "--jobs", jobs]) == 0
        out = capsys.readouterr().out
    assert out == (Path(__file__).parent / "golden" / "verify_all_n6.txt").read_text()


def test_criterion_3_bijection_231():
    with _Timer(3, "231 bijection", 60.0):
        for n in range(1, 6):
            image = [avoid231.encode(w) for w in avoid231.words(n - 1)]
            assert len(set(image)) == len(image) == 3 ** (n - 1)
            if n <= 4:
                want = set(
                    oracle.oracle_enumerate(
                        oracle.AvoidanceQuery(n, frozenset({(2, 3, 1)}))
                    )
                )
                assert set(image) == want
        for length in range(8):
            for w in avoid231.words(length):
                assert avoid231.decode(avoid231.encode(w)) == w


def test_criterion_4_motzkin_type_machinery():
    with _Timer(4, "Motzkin/type machinery", 60.0):
        motzkin = series.motzkin_numbers(8)
        catalan = series.catalan_numbers(8)
        for n in range(1, 9):
            everything = set(words.dyck_words(n, "1", "2"))
            assert len(everything) == catalan[n]
            seen: set[str] = set()
            # each composition of n, built from its cut points
            cut_sets = (itertools.combinations(range(1, n), k) for k in range(n))
            for cuts in itertools.chain.from_iterable(cut_sets):
                bounds = (0, *cuts, n)
                parts = tuple(hi - lo for lo, hi in zip(bounds, bounds[1:]))
                fiber = list(avoid132.enumerate_dyck_of_type(parts))
                assert len(set(fiber)) == len(fiber) == motzkin[len(parts) - 1], parts
                assert seen.isdisjoint(fiber)
                seen.update(fiber)
                for w in fiber:
                    assert avoid132.type_of(w) == parts
            assert seen == everything


def test_criterion_5_catalan_block_construction():
    with _Timer(5, "Catalan block construction", 60.0):
        catalan = series.catalan_numbers(4)
        for n in range(1, 5):
            built: list[perm.Perm] = []
            for word in words.dyck_words(n, "1", "2"):
                parts = avoid132.type_of(word)
                fiber = [
                    avoid132.perm_from_dyck_word(word, fills)
                    for fills in itertools.product(
                        *(avoid132.avoiders_of_132(x) for x in parts)
                    )
                ]
                assert len(set(fiber)) == len(fiber) == math.prod(
                    catalan[x] for x in parts
                )
                built.extend(fiber)
            want = set(
                oracle.oracle_enumerate(
                    oracle.AvoidanceQuery(n, frozenset({(1, 3, 2)}), form="312")
                )
            )
            assert len(set(built)) == len(built)
            assert set(built) == want


def test_criterion_6_generating_functions():
    with _Timer(6, "generating functions", 5.0):
        order = 20
        a = series.series_A(order)
        b = series.series_B(order)
        assert a.coefficient(0) == 0 and b.coefficient(0) == 0
        sum_a, sum_b = composition_sums_132(order)
        for n in range(1, order + 1):
            assert a.coefficient(n) == sum_a[n] == avoid132.count_all312(n)
            assert b.coefficient(n) == sum_b[n] == avoid132.count_132(n)
        assert b * (series.one(order) - a) == a.scale(2)
        for n in range(1, 4):
            table = oracle.avoidance_profile(n)
            assert a.coefficient(n) == oracle.profile_count(table, [(1, 3, 2)], "312")
            assert b.coefficient(n) == oracle.profile_count(table, [(1, 3, 2)])
        table = oracle.avoidance_profile(4)
        assert a.coefficient(4) == oracle.profile_count(table, [(1, 3, 2)], "312")
        assert b.coefficient(4) == oracle.profile_count(table, [(1, 3, 2)])


def test_criterion_7_weighted_321_sums():
    with _Timer(7, "321 weighted sums", 60.0):
        for n in range(1, 11):
            # the staircase route against the Dyck route, h_polynomial(n)(2)
            assert avoid321.count_321_via_tsets(n) == avoid321.count_321_via_dyck(n)
        for n in range(1, 13):
            assert avoid321.dyck_identity_check(n)
        for n in range(1, 6):
            members: list[perm.Perm] = []
            for t in avoid321.enumerate_tsets(n):
                h = _kernels.h_of_tset(t)
                for forms in itertools.product(avoid321.FORM_CHOICES, repeat=h):
                    members.append(avoid321.perm_from_choices(t, forms))
            assert all(perm.avoids(p, (3, 2, 1)) for p in members)
            assert len(set(members)) == len(members)
            assert len(members) == avoid321.count_321_via_tsets(n)


def test_criterion_8_paper_example_golden_values():
    with _Timer(8, "worked-example golden values", 30.0):
        # E/L/R on the size-12 example
        base = perm.parse_one_line("3 1 2 12 11 10 5 4 6 9 7 8")
        assert avoid231.anchor(base) == (4, 8)
        word = avoid231.decode(base)
        assert perm.format_one_line(avoid231.encode(word + "E")) == (
            "3 1 2 12 11 10 5 4 6 9 7 8 15 13 14"
        )
        assert perm.format_one_line(avoid231.encode(word + "L")) == (
            "3 1 2 15 14 13 12 6 4 5 7 11 8 10 9"
        )
        assert perm.format_one_line(avoid231.encode(word + "R")) == (
            "3 1 2 15 14 13 12 6 5 4 7 11 8 9 10"
        )

        # the size-18 132 example: partition, word, type and all four fills
        example = perm.parse_one_line("18 16 14 15 12 11 6 5 3 4 7 8 2 9 10 13 1 17")
        part = avoid132.t_partition(example)
        assert part.t1 == (1, 2, 3, 4, 5, 6)
        assert part.t2 == (7, 8, 9, 10, 13, 17)
        assert part.t3 == (11, 12, 14, 15, 16, 18)
        word = avoid132.dyck_word_of(example)
        assert word == "111122122212"
        assert avoid132.type_of(word) == (2, 2, 1, 1)
        completions = {
            perm.format_one_line(avoid132.perm_from_dyck_word(word, fills))
            for fills in itertools.product(
                avoid132.avoiders_of_132(2),
                avoid132.avoiders_of_132(2),
                [(1,)],
                [(1,)],
            )
        }
        assert completions == {
            "18 16 14 15 11 12 5 6 3 4 7 8 2 9 10 13 1 17",
            "18 16 14 15 12 11 6 5 3 4 7 8 2 9 10 13 1 17",
            "18 16 15 14 11 12 5 6 4 3 7 8 2 9 10 13 1 17",
            "18 16 15 14 12 11 6 5 4 3 7 8 2 9 10 13 1 17",
        }

        # the Motzkin reconstruction and the type-(2,2,1,1) words
        assert avoid132.motzkin_to_dyck11("UDF") == "11212212"
        assert set(avoid132.enumerate_dyck_of_type((2, 2, 1, 1))) == {
            "111122122212",
            "112211122122",
            "111122122122",
            "112211221212",
        }

        # the 321-side worked example
        assert avoid321.word_of_tset((1, 2, 3, 6, 11, 14)) == "zzzxxzxyyxzyyzxxyy"
        assert perm.format_one_line(avoid321.perm_from_tset((1, 2, 3, 6, 11, 14))) == (
            "8 9 12 1 2 13 3 4 5 6 17 7 10 18 11 14 15 16"
        )

        # the Dyck word with nine staircase sets and eight members each
        stats = avoid321.dyck_stats("xxyyxyxxyxyy")
        assert (stats.h, stats.r, stats.s) == (3, (0, 2, 1, 0, 1), (0, 1, 2, 1, 0))
        assert set(avoid321.tsets_for_dyck("xxyyxyxxyxyy")) == {
            (1, 2, 7, 10, 11, 13),
            (1, 2, 7, 9, 11, 13),
            (1, 2, 7, 9, 10, 13),
            (1, 2, 6, 10, 11, 13),
            (1, 2, 6, 9, 11, 13),
            (1, 2, 6, 9, 10, 13),
            (1, 2, 5, 10, 11, 13),
            (1, 2, 5, 9, 11, 13),
            (1, 2, 5, 9, 10, 13),
        }
        eight = {
            perm.format_one_line(avoid321.perm_from_choices((1, 2, 7, 10, 11, 13), f))
            for f in itertools.product(avoid321.FORM_CHOICES, repeat=3)
        }
        assert eight == {
            "5 6 1 2 3 4 9 7 8 15 17 10 18 11 12 13 14 16",
            "5 6 1 2 3 4 9 7 8 12 14 15 16 17 10 18 11 13",
            "5 6 1 2 3 4 8 9 7 15 17 10 18 11 12 13 14 16",
            "5 6 1 2 3 4 8 9 7 12 14 15 16 17 10 18 11 13",
            "3 4 5 6 1 2 9 7 8 15 17 10 18 11 12 13 14 16",
            "3 4 5 6 1 2 9 7 8 12 14 15 16 17 10 18 11 13",
            "3 4 5 6 1 2 8 9 7 15 17 10 18 11 12 13 14 16",
            "3 4 5 6 1 2 8 9 7 12 14 15 16 17 10 18 11 13",
        }

        # the size-6 mixed quadruple
        mixed = {
            perm.format_one_line(avoid321.perm_from_choices(t, forms))
            for t in ((1, 3), (1, 4))
            for forms in (
                (perm.FORM_312, perm.FORM_231),
                (perm.FORM_231, perm.FORM_312),
            )
        }
        assert mixed == {"2 4 6 1 3 5", "4 1 5 2 6 3", "2 3 1 6 4 5", "3 1 2 5 6 4"}
