"""The value partition, Dyck word type machinery, Motzkin correspondence,
block construction and counts for 132-avoiders."""

from __future__ import annotations

import itertools
import math

import pytest

from threecycle import avoid132, oracle, perm, series, words
from threecycle.errors import MembershipError

EXAMPLE = perm.parse_one_line("18 16 14 15 12 11 6 5 3 4 7 8 2 9 10 13 1 17")
EXAMPLE_WORD = "111122122212"


def all312_members(n):
    return list(oracle.oracle_enumerate(oracle.query(n, "132", form="312")))


class TestPartitionAndWord:
    def test_worked_example(self):
        part = avoid132.t_partition(EXAMPLE)
        assert part.t1 == tuple(range(1, 7))
        assert part.t2 == (7, 8, 9, 10, 13, 17)
        assert part.t3 == (11, 12, 14, 15, 16, 18)
        assert avoid132.dyck_word_of(EXAMPLE) == EXAMPLE_WORD

    def test_single_cycle(self):
        part = avoid132.t_partition((3, 1, 2))
        assert (part.t1, part.t2, part.t3) == ((1,), (2,), (3,))
        assert avoid132.dyck_word_of((3, 1, 2)) == "12"

    def test_known_word_pair(self):
        assert avoid132.dyck_word_of((5, 6, 1, 2, 3, 4)) == "1122"
        assert avoid132.dyck_word_of((6, 5, 2, 1, 3, 4)) == "1122"

    def test_rejections(self):
        with pytest.raises(MembershipError, match="231-form"):
            avoid132.t_partition((2, 3, 1))
        with pytest.raises(MembershipError, match="132"):
            # all-312 cycles but contains the pattern 132 (cycle (1,4,2),(3,6,5))
            avoid132.t_partition((4, 1, 6, 2, 3, 5))
        with pytest.raises(MembershipError, match="3-cycles"):
            avoid132.t_partition((2, 1, 4, 3, 6, 5))

    def test_structure_lemma_on_members(self, star_sets):
        # minima fill [n]; word is a Dyck word; middles increase left to right
        for n in (1, 2, 3):
            for p in all312_members(n):
                part = avoid132.t_partition(p)
                assert part.t1 == tuple(range(1, n + 1))
                word = avoid132.dyck_word_of(p)
                assert words.is_balanced(word, "1", "2")
                middles = [v for v in p if v in set(part.t2)]
                assert middles == sorted(middles)

    def test_front_entries_in_distinct_cycles(self):
        # holds for every 132-avoider, mixed forms included
        for n in (1, 2, 3):
            for p in oracle.oracle_enumerate(oracle.query(n, "132")):
                decomp = perm.cycle_decomposition(p)
                owner = {}
                for idx, cycle in enumerate(decomp.cycles):
                    for v in cycle:
                        owner[v] = idx
                front = {owner[v] for v in p[:n]}
                assert len(front) == n


class TestType:
    def test_worked_example(self):
        assert avoid132.type_of(EXAMPLE_WORD) == (2, 2, 1, 1)

    def test_staircase_word(self):
        for n in (1, 2, 5):
            assert avoid132.type_of("1" * n + "2" * n) == (n,)

    def test_small_word(self):
        assert avoid132.type_of("1122") == (2,)
        # Catalan-many members share that word
        fiber = [p for p in all312_members(2) if avoid132.dyck_word_of(p) == "1122"]
        assert len(fiber) == 2

    def test_type_is_composition(self):
        for word in words.dyck_words(5, "1", "2"):
            parts = avoid132.type_of(word)
            assert all(x >= 1 for x in parts)
            assert sum(parts) == 5

    def test_rejects_non_dyck(self):
        with pytest.raises(ValueError):
            avoid132.type_of("2112")

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            avoid132.type_of("")


class TestMotzkinCorrespondence:
    def test_worked_example(self):
        assert avoid132.motzkin_to_dyck11("UDF") == "11212212"

    def test_empty_word(self):
        assert avoid132.motzkin_to_dyck11("") == "12"

    def test_length3_words(self):
        got = {avoid132.motzkin_to_dyck11(m) for m in words.motzkin_words(3)}
        assert got == {"11212212", "12112122", "11212122", "12121212"}


class TestExpandContract:
    def test_worked_example(self):
        assert avoid132.expand_type("11212212", (2, 2, 1, 1)) == EXAMPLE_WORD

    def test_trivial_expand(self):
        assert avoid132.expand_type("12", (4,)) == "11112222"

    def test_expand_checks_lengths(self):
        with pytest.raises(ValueError):
            avoid132.expand_type("12", (1, 1))

    def test_expand_rejects_empty_word(self):
        with pytest.raises(ValueError):
            avoid132.expand_type("", ())


class TestEnumerateByType:
    def test_worked_example(self):
        got = set(avoid132.enumerate_dyck_of_type((2, 2, 1, 1)))
        assert got == {
            "111122122212",
            "112211122122",
            "111122122122",
            "112211221212",
        }

    def test_single_part(self):
        assert list(avoid132.enumerate_dyck_of_type((4,))) == ["11112222"]

    def test_motzkin_cardinality(self):
        assert len(list(avoid132.enumerate_dyck_of_type((1, 1, 1)))) == 2


class TestConstruction:
    def test_worked_examples(self):
        first = avoid132.perm_from_dyck_word(
            EXAMPLE_WORD, [(1, 2), (1, 2), (1,), (1,)]
        )
        assert first == perm.parse_one_line(
            "18 16 14 15 11 12 5 6 3 4 7 8 2 9 10 13 1 17"
        )
        fourth = avoid132.perm_from_dyck_word(
            EXAMPLE_WORD, [(2, 1), (2, 1), (1,), (1,)]
        )
        assert fourth == perm.parse_one_line(
            "18 16 15 14 12 11 6 5 4 3 7 8 2 9 10 13 1 17"
        )
        # the running example is the (21, 12, 1, 1) completion
        assert (
            avoid132.perm_from_dyck_word(EXAMPLE_WORD, [(2, 1), (1, 2), (1,), (1,)])
            == EXAMPLE
        )

    def test_trivial_case(self):
        assert avoid132.perm_from_dyck_word("12", [(1,)]) == (3, 1, 2)

    def test_rejects_bad_fills(self):
        with pytest.raises(ValueError, match="132"):
            avoid132.perm_from_dyck_word("111222", [(1, 3, 2)])
        with pytest.raises(ValueError, match="type"):
            avoid132.perm_from_dyck_word("1122", [(1,), (1,)])

    def test_fibers_and_round_trip(self):
        cat = series.catalan_numbers(6)
        for n in range(1, 6):
            total = []
            for word in words.dyck_words(n, "1", "2"):
                parts = avoid132.type_of(word)
                fiber = [
                    avoid132.perm_from_dyck_word(word, fills)
                    for fills in itertools.product(
                        *(avoid132.avoiders_of_132(x) for x in parts)
                    )
                ]
                expected_size = math.prod(cat[x] for x in parts)
                assert len(set(fiber)) == len(fiber) == expected_size
                for p in fiber:
                    assert avoid132.dyck_word_of(p) == word
                total.extend(fiber)
            assert len(set(total)) == len(total) == avoid132.count_all312(n)

    def test_matches_oracle(self):
        for n in (1, 2, 3):
            assert set(avoid132.enumerate_all312(n)) == set(all312_members(n))


class TestCounts:
    def test_all312_values(self):
        assert [avoid132.count_all312(n) for n in range(1, 5)] == [1, 3, 11, 44]

    def test_all312_small_sum_by_hand(self):
        # n=2: M0*C2 + M1*C1*C1 = 2 + 1
        assert avoid132.count_all312(2) == 3

    def test_all312_matches_oracle(self):
        for n in (1, 2, 3):
            assert avoid132.count_all312(n) == len(all312_members(n))

    def test_132_table_row(self):
        assert [avoid132.count_132(n) for n in range(1, 6)] == [2, 8, 36, 170, 824]

    def test_132_matches_oracle(self):
        for n in (1, 2, 3):
            assert avoid132.count_132(n) == oracle.oracle_count(
                oracle.query(n, "132")
            )

    def test_avoiders_catalog(self):
        cat = series.catalan_numbers(6)
        for k in range(1, 7):
            fills = avoid132.avoiders_of_132(k)
            assert len(fills) == cat[k]
            assert list(fills) == sorted(fills)
