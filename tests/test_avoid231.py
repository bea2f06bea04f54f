"""The E/L/R insertion operations and the word bijection for 231-avoiders."""

from __future__ import annotations

import random
import time

import pytest
from conftest import insert_by_rerank, naive_contains
from hypothesis import given
from hypothesis import strategies as st

from threecycle import avoid231, oracle, perm
from threecycle.errors import MAX_DIGITS, MembershipError, ResourceLimitError

EXAMPLE = perm.parse_one_line("3 1 2 12 11 10 5 4 6 9 7 8")

elr_words = st.text(alphabet="ELR", max_size=300)


def class_members(n):
    return list(oracle.oracle_enumerate(oracle.query(n, "231")))


class TestAnchor:
    def test_worked_example(self):
        assert avoid231.anchor(EXAMPLE) == (4, 8)

    def test_whole_permutation_is_max_cycle(self):
        assert avoid231.anchor((3, 1, 2)) == (1, 2)

    def test_derived_small_case(self):
        p = perm.parse_one_line("3 1 2 6 4 5")
        # the cycle of 6 is (4,6,5): verified through the decomposition
        decomp = perm.cycle_decomposition(p)
        assert (4, 6, 5) in decomp.cycles
        assert avoid231.anchor(p) == (4, 5)

    def test_rejects_non_members(self):
        with pytest.raises(MembershipError, match="231"):
            avoid231.anchor((2, 3, 1))  # contains itself
        with pytest.raises(MembershipError, match="3-cycle"):
            avoid231.anchor((1, 2, 3))


class TestInsertions:
    def test_worked_examples(self):
        assert avoid231.insert_E(EXAMPLE) == perm.parse_one_line(
            "3 1 2 12 11 10 5 4 6 9 7 8 15 13 14"
        )
        assert avoid231.insert_L(EXAMPLE) == perm.parse_one_line(
            "3 1 2 15 14 13 12 6 4 5 7 11 8 10 9"
        )
        assert avoid231.insert_R(EXAMPLE) == perm.parse_one_line(
            "3 1 2 15 14 13 12 6 5 4 7 11 8 9 10"
        )

    def test_seed_insertions(self):
        assert avoid231.insert_E((3, 1, 2)) == (3, 1, 2, 6, 4, 5)
        assert avoid231.insert_L((3, 1, 2)) == (6, 5, 1, 2, 4, 3)

    def test_inserted_value_sets(self):
        # E adds the three new maxima; L adds {a, b+1, max}; R adds {a, b+2, max}
        a, b = avoid231.anchor(EXAMPLE)
        m = len(EXAMPLE)
        for letter, expected in (
            ("E", {m + 1, m + 2, m + 3}),
            ("L", {a, b + 1, m + 3}),
            ("R", {a, b + 2, m + 3}),
        ):
            result = avoid231._insert(EXAMPLE, letter)
            # the new values are those whose removal re-ranks back to EXAMPLE
            tau, got_letter = avoid231.decode_step(result)
            assert got_letter == letter and tau == EXAMPLE
            # check the advertised value set directly: re-rank the complement
            fresh = sorted(set(range(1, m + 4)) - expected)
            relabeled = tuple(fresh[v - 1] for v in EXAMPLE)
            stripped = tuple(v for v in result if v not in expected)
            assert stripped == relabeled

    def test_closure_into_next_class(self):
        for n in (1, 2, 3):
            for p in class_members(n):
                for insert in (avoid231.insert_E, avoid231.insert_L, avoid231.insert_R):
                    q = insert(p)
                    assert len(q) == 3 * (n + 1)
                    assert perm.is_three_cycle_only(q)
                    assert perm.avoids(q, (2, 3, 1))

    def test_max_neighbour_property(self):
        # in every L/R output the entry right of the maximum is maximum-1
        for n in (1, 2, 3):
            for p in class_members(n):
                for insert in (avoid231.insert_L, avoid231.insert_R):
                    q = insert(p)
                    top = len(q)
                    assert q[q.index(top) + 1] == top - 1

    def test_rejects_non_members(self):
        with pytest.raises(MembershipError):
            avoid231.insert_E((2, 3, 1))

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError, match="letter must be one of"):
            avoid231._insert(EXAMPLE, "X")


class TestDecodeStep:
    def test_inverse_of_worked_examples(self):
        e = perm.parse_one_line("3 1 2 12 11 10 5 4 6 9 7 8 15 13 14")
        assert avoid231.decode_step(e) == (EXAMPLE, "E")
        assert avoid231.decode_step((6, 5, 1, 2, 4, 3)) == ((3, 1, 2), "L")
        assert avoid231.decode_step((3, 1, 2, 6, 4, 5)) == ((3, 1, 2), "E")

    def test_round_trip_on_class(self):
        for n in (1, 2, 3):
            for p in class_members(n):
                for letter in avoid231.LETTERS:
                    q = avoid231._insert(p, letter)
                    assert avoid231.decode_step(q) == (p, letter)

    def test_too_short_rejected(self):
        with pytest.raises(MembershipError):
            avoid231.decode_step((3, 1, 2))


class TestWordBijection:
    def test_empty_word_is_seed(self):
        assert avoid231.encode("") == (3, 1, 2)
        assert avoid231.decode((3, 1, 2)) == ""

    def test_single_letter(self):
        assert avoid231.encode("E") == (3, 1, 2, 6, 4, 5)

    def test_length2_words_give_the_class(self):
        got = {avoid231.encode(w) for w in avoid231.words(2)}
        want = set(oracle.oracle_enumerate(oracle.query(3, "231")))
        assert got == want
        assert len(got) == 9

    def test_image_matches_oracle(self):
        for n in (1, 2, 3, 4):
            image = {avoid231.encode(w) for w in avoid231.words(n - 1)}
            assert len(image) == avoid231.count_231(n)
            assert image == set(class_members(n))

    def test_round_trip_words(self):
        for length in range(0, 5):
            for w in avoid231.words(length):
                assert avoid231.decode(avoid231.encode(w)) == w

    @given(elr_words)
    def test_round_trip_random_words(self, w):
        assert avoid231.decode(avoid231.encode(w)) == w

    def test_round_trip_members(self):
        for n in (1, 2, 3, 4):
            for p in class_members(n):
                assert avoid231.encode(avoid231.decode(p)) == p

    def test_decode_rejects_non_members(self):
        with pytest.raises(MembershipError):
            avoid231.decode((2, 3, 1))
        with pytest.raises(MembershipError):
            avoid231.decode(perm.parse_one_line("2 1 4 3 6 5"))

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            avoid231.encode("EX")

    def test_encode_is_the_rerank_fold(self):
        # pins the map itself: another bijection onto the same image would
        # pass the image and round-trip tests but not this one
        for length in range(0, 8):
            for w in avoid231.words(length):
                p = (3, 1, 2)
                for letter in w:
                    p = insert_by_rerank(p, letter)
                assert avoid231.encode(w) == p, w

    @pytest.mark.parametrize("n", [2, 3])
    def test_decode_on_every_star_permutation(self, n):
        decoded = []
        for p in perm.iterate_star(n):
            if naive_contains(p, (2, 3, 1)):
                with pytest.raises(MembershipError, match="231"):
                    avoid231.decode(p)
            else:
                w = avoid231.decode(p)
                assert avoid231.encode(w) == p
                decoded.append(w)
        assert sorted(decoded) == list(avoid231.words(n - 1))

    def test_decode_rejects_bad_lengths(self):
        with pytest.raises(MembershipError, match="not a multiple of 3"):
            avoid231.decode((2, 1))

    @pytest.mark.parametrize("n", [2, 3])
    def test_decode_refusals_word_for_word(self, n):
        # decode checks membership by the round trip and scans for 231 only
        # on a refusal; every 3-cycle-only permutation of [3n] still gets the
        # answer, or the exception and message, of a scan made up front
        for p in perm.iterate_star(n):
            if naive_contains(p, (2, 3, 1)):
                with pytest.raises(MembershipError) as refused:
                    avoid231.decode(p)
                assert type(refused.value) is MembershipError
                assert str(refused.value) == f"contains the pattern 231: {p}"
            else:
                assert avoid231.encode(avoid231.decode(p)) == p

    def test_long_image_decodes_in_linear_time(self, monkeypatch):
        # 300,003 entries: a 231 scan as wide as that takes seconds on its
        # own, and decoding a member runs none
        rng = random.Random(100_000)
        w = "".join(rng.choice(avoid231.LETTERS) for _ in range(100_000))
        p = avoid231.encode(w)

        def no_scan(*args):
            raise AssertionError("decode scanned a member for 231")

        monkeypatch.setattr(perm, "contains_pattern", no_scan)
        start = time.perf_counter()
        assert avoid231.decode(p) == w
        assert time.perf_counter() - start < 3.0

    def test_long_word_round_trips_in_linear_time(self):
        rng = random.Random(20000)
        w = "".join(rng.choice(avoid231.LETTERS) for _ in range(20_000))
        start = time.perf_counter()
        assert avoid231.decode(avoid231.encode(w)) == w
        assert time.perf_counter() - start < 5.0


class TestCount:
    def test_powers_of_three(self):
        assert [avoid231.count_231(n) for n in (1, 4, 5)] == [1, 27, 81]

    def test_bound_is_the_last_n_that_fits_the_digit_limit(self):
        limit = avoid231.COUNT_LIMIT
        assert avoid231.count_231(limit) < 10**MAX_DIGITS <= 3**limit
        with pytest.raises(ResourceLimitError, match="digits"):
            avoid231.count_231(limit + 1)

    def test_matches_oracle(self):
        for n in (1, 2, 3, 4):
            assert avoid231.count_231(n) == oracle.oracle_count(
                oracle.query(n, "231")
            )
