"""Staircase sets, the z/x/y word algorithm, both constructions, the lattice
path bijection, and the two counting routes for 321-avoiders."""

from __future__ import annotations

import itertools
import math
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cycle_forms,
    cycle_lengths,
    naive_contains,
    staircase_word,
    tset_sum_by_enumeration,
)
from threecycle import _kernels, avoid321, oracle, perm
from threecycle.errors import MAX_DIGITS, InternalInvariantError, ResourceLimitError

BIG_T = (1, 2, 3, 6, 11, 14)
BIG_WORD = "zzzxxzxyyxzyyzxxyy"
DYCK_EXAMPLE = "xxyyxyxxyxyy"
NINE_TSETS = {
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
EIGHT_PERMS = {
    "5 6 1 2 3 4 9 7 8 15 17 10 18 11 12 13 14 16",
    "5 6 1 2 3 4 9 7 8 12 14 15 16 17 10 18 11 13",
    "5 6 1 2 3 4 8 9 7 15 17 10 18 11 12 13 14 16",
    "5 6 1 2 3 4 8 9 7 12 14 15 16 17 10 18 11 13",
    "3 4 5 6 1 2 9 7 8 15 17 10 18 11 12 13 14 16",
    "3 4 5 6 1 2 9 7 8 12 14 15 16 17 10 18 11 13",
    "3 4 5 6 1 2 8 9 7 15 17 10 18 11 12 13 14 16",
    "3 4 5 6 1 2 8 9 7 12 14 15 16 17 10 18 11 13",
}


@st.composite
def staircase_sets(draw, max_n):
    """A staircase set of size 1..max_n: each t_i drawn above t_(i-1) and at
    most 3i - 2."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    t = []
    for i in range(1, n + 1):
        lo = t[-1] + 1 if t else 1
        t.append(draw(st.integers(min_value=lo, max_value=3 * i - 2)))
    return tuple(t)


@st.composite
def sets_with_forms(draw, max_n):
    """A staircase set and one drawn form per balanced segment of its word."""
    t = draw(staircase_sets(max_n))
    h = _kernels.h_of_tset(t)
    form = st.sampled_from(avoid321.FORM_CHOICES)
    forms = draw(st.lists(form, min_size=h, max_size=h))
    return t, tuple(forms)


def class_members(n):
    return set(oracle.oracle_enumerate(oracle.query(n, "321")))


def nested_scan_stats(word):
    """The statistics straight from their definitions: h counts the returns
    to depth 0, r_i the y's strictly between the i-th and (i+1)-th x, s_i the
    x's strictly between the i-th and (i+1)-th y."""
    n = len(word) // 2
    xpos = [i for i, ch in enumerate(word) if ch == "x"]
    ypos = [i for i, ch in enumerate(word) if ch == "y"]
    h = depth = 0
    for ch in word:
        depth += 1 if ch == "x" else -1
        if depth == 0:
            h += 1
    r = tuple(
        sum(1 for j in ypos if xpos[i] < j < xpos[i + 1]) for i in range(n - 1)
    )
    s = tuple(
        sum(1 for j in xpos if ypos[i] < j < ypos[i + 1]) for i in range(n - 1)
    )
    return avoid321.DyckStats(word, h, r, s)


class TestStaircaseSets:
    def test_small_cases(self):
        assert list(avoid321.enumerate_tsets(1)) == [(1,)]
        assert list(avoid321.enumerate_tsets(2)) == [(1, 2), (1, 3), (1, 4)]

    def test_n3_count(self):
        sets = list(avoid321.enumerate_tsets(3))
        assert len(sets) == 12 == math.comb(9, 3) // 7

    def test_fuss_catalan_counts(self):
        for n in range(1, 8):
            count = sum(1 for _ in avoid321.enumerate_tsets(n))
            assert count == avoid321.fuss_catalan(n)

    def test_fuss_catalan_values(self):
        assert [avoid321.fuss_catalan(n) for n in (2, 3, 5)] == [3, 12, 273]

    def test_fuss_catalan_bound_is_the_last_n_that_fits(self, monkeypatch):
        limit = avoid321.FUSS_LIMIT
        past = math.comb(3 * limit + 3, limit + 1) // (2 * limit + 3)
        assert avoid321.fuss_catalan(limit) < 10**MAX_DIGITS <= past

        def no_comb(*args):
            raise AssertionError("computed a binomial")

        monkeypatch.setattr(math, "comb", no_comb)
        with pytest.raises(ResourceLimitError, match="digits"):
            avoid321.fuss_catalan(limit + 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            avoid321.check_tset((1, 5))  # 5 > 3*2-2
        with pytest.raises(ValueError):
            avoid321.check_tset((2, 3))  # 2 > 3*1-2
        with pytest.raises(ValueError):
            avoid321.check_tset((1, 1))
        for t in [(0,), (-3, 1)]:
            with pytest.raises(ValueError, match="elements must be >= 1"):
                avoid321.check_tset(t)


class TestWordAlgorithm:
    def test_worked_examples(self):
        assert avoid321.word_of_tset(BIG_T) == BIG_WORD
        assert avoid321.word_of_tset((1,)) == "zxy"
        assert avoid321.word_of_tset((1, 2, 7, 10, 11, 13)) == "zzxxyyzxyzzxzxyxyy"

    def test_n2_words(self):
        assert avoid321.word_of_tset((1, 2)) == "zzxxyy"
        assert avoid321.word_of_tset((1, 3)) == "zxzyxy"
        assert avoid321.word_of_tset((1, 4)) == "zxyzxy"

    def test_words_match_reference_rule(self):
        # every staircase set up to n=7: the word and its statistic are the
        # letter-by-letter rule's
        for n in range(1, 8):
            for t in avoid321.enumerate_tsets(n):
                word, h, _ = staircase_word(t)
                assert avoid321.word_of_tset(t) == word, t
                assert _kernels.h_of_tset(t) == h, t

    def test_letter_conditions(self):
        # value/position interleaving conditions on every set up to n=5:
        # (a) t_i < i-th x position < i-th y position,
        # (c) the i-th y lies between the j-th and (j+1)-st x exactly when
        #     the i-th z lies between the j-th and (j+1)-st y (value form)
        for n in range(1, 6):
            for t in avoid321.enumerate_tsets(n):
                word = avoid321.word_of_tset(t)
                xpos = [i + 1 for i, ch in enumerate(word) if ch == "x"]
                ypos = [i + 1 for i, ch in enumerate(word) if ch == "y"]
                for i in range(n):
                    assert t[i] < xpos[i] < ypos[i]
                for i in range(n):
                    for j in range(n - 1):
                        y_between_x = xpos[j] < ypos[i] < xpos[j + 1]
                        x_between_z = t[j] < xpos[i] < t[j + 1]
                        if y_between_x or x_between_z:
                            assert y_between_x == x_between_z

    @pytest.mark.parametrize(
        "t,word,match",
        [
            ((1,), "zxx", "unbalanced"),
            ((1,), "zyx", "precedence violated at index 1"),  # y before x
            ((1, 4), "zxyxzy", "precedence violated at index 2"),  # x before z
        ],
        ids=["unbalanced", "y-before-x", "x-before-z"],
    )
    def test_faulty_scan_is_a_bug(self, t, word, match, monkeypatch):
        def faulty(_t):
            return bytearray(word.encode()), (len(t),)

        monkeypatch.setattr(_kernels, "tset_scan", faulty)
        with pytest.raises(InternalInvariantError, match=match):
            avoid321.word_of_tset(t)
        with pytest.raises(InternalInvariantError, match=match):
            avoid321.perm_from_choices(t, (perm.FORM_312,))


class TestAll312Construction:
    def test_worked_example(self):
        assert avoid321.perm_from_tset(BIG_T) == perm.parse_one_line(
            "8 9 12 1 2 13 3 4 5 6 17 7 10 18 11 14 15 16"
        )

    def test_trivial(self):
        assert avoid321.perm_from_tset((1,)) == (3, 1, 2)

    def test_two_cycles(self):
        assert avoid321.perm_from_tset((1, 2)) == (5, 6, 1, 2, 3, 4)

    def test_members_avoid_321_all_forms_312(self):
        for n in range(1, 5):
            for t in avoid321.enumerate_tsets(n):
                p = avoid321.perm_from_tset(t)
                assert perm.avoids(p, (3, 2, 1))
                forms = perm.cycle_decomposition(p).forms
                assert forms is not None and set(forms) == {perm.FORM_312}
                # the cycle minima recover the staircase set uniquely; each
                # cycle starts at its minimum, and cycles go by that element
                assert tuple(c[0] for c in perm.cycle_decomposition(p).cycles) == t

    def test_matches_oracle_subclass(self):
        for n in (1, 2, 3):
            built = {avoid321.perm_from_tset(t) for t in avoid321.enumerate_tsets(n)}
            want = set(oracle.oracle_enumerate(oracle.query(n, "321", form="312")))
            assert built == want
            # one member per staircase set: perm_from_tset is injective
            assert len(built) == avoid321.fuss_catalan(n)
            # mirror subclass via the inverse map
            mirrored = {perm.inverse(p) for p in built}
            want231 = set(oracle.oracle_enumerate(oracle.query(n, "321", form="231")))
            assert mirrored == want231


class TestLatticePaths:
    def test_examples(self):
        assert avoid321.tset_to_path((1, 2)) == "EEEENN"
        assert avoid321.tset_to_path((1, 4)) == "EENEEN"
        assert avoid321.tset_to_path((1,)) == "EEN"
        assert avoid321.path_to_tset("EENEEN") == (1, 4)

    def test_slack_relation(self):
        # t_i = i + s_i with s the nondecreasing slack vector in [0, 2i-2]
        for n in range(1, 6):
            for t in avoid321.enumerate_tsets(n):
                slacks = [v - (i + 1) for i, v in enumerate(t)]
                assert all(0 <= s <= 2 * i for i, s in enumerate(slacks))
                assert slacks == sorted(slacks)

    def test_round_trip(self):
        for n in range(1, 7):
            for t in avoid321.enumerate_tsets(n):
                path = avoid321.tset_to_path(t)
                assert path.count("E") == 2 * n and path.count("N") == n
                assert avoid321.path_to_tset(path) == t

    @given(staircase_sets(30))
    def test_round_trip_drawn_sets(self, t):
        n = len(t)
        path = avoid321.tset_to_path(t)
        assert path.count("E") == 2 * n and path.count("N") == n
        assert avoid321.path_to_tset(path) == t

    def test_paths_are_distinct_and_exhaust(self):
        n = 4
        paths = {avoid321.tset_to_path(t) for t in avoid321.enumerate_tsets(n)}
        assert len(paths) == avoid321.fuss_catalan(n)
        # every valid path decodes; every decode re-encodes
        for path in paths:
            assert avoid321.tset_to_path(avoid321.path_to_tset(path)) == path

    def test_malformed_paths_rejected(self):
        for bad in ("", "ENE", "NEE", "EENXEN", "EENENE", "EEENNE"):
            with pytest.raises(ValueError):
                avoid321.path_to_tset(bad)


class TestBalancedSegments:
    def test_examples(self):
        # the scan's cuts for the sets behind zzxxyyzxyzzxzxyxyy, zxy, zzxxyy
        for t, word, cuts in (
            ((1, 2, 7, 10, 11, 13), "zzxxyyzxyzzxzxyxyy", (2, 3, 6)),
            ((1,), "zxy", (1,)),
            ((1, 2), "zzxxyy", (2,)),
        ):
            codes, got = _kernels.tset_scan(t)
            assert (codes.decode(), got) == (word, cuts), t

    def test_last_milestone_is_n(self):
        for n in range(1, 6):
            for t in avoid321.enumerate_tsets(n):
                cuts = _kernels.tset_scan(t)[1]
                assert len(cuts) == _kernels.h_of_tset(t)
                assert cuts[-1] == n


class TestFormChoices:
    def test_mixed_quadruple(self):
        f312, f231 = perm.FORM_312, perm.FORM_231
        assert avoid321.perm_from_choices((1, 3), (f312, f231)) == (4, 1, 5, 2, 6, 3)
        assert avoid321.perm_from_choices((1, 3), (f231, f312)) == (2, 4, 6, 1, 3, 5)
        assert avoid321.perm_from_choices((1, 4), (f312, f231)) == (3, 1, 2, 5, 6, 4)
        assert avoid321.perm_from_choices((1, 4), (f231, f312)) == (2, 3, 1, 6, 4, 5)

    def test_all_same_fillings_of_big_set(self):
        t = (1, 2, 7, 10, 11, 13)
        all312 = avoid321.perm_from_choices(t, (perm.FORM_312,) * 3)
        all231 = avoid321.perm_from_choices(t, (perm.FORM_231,) * 3)
        assert all312 == perm.parse_one_line(
            "5 6 1 2 3 4 9 7 8 15 17 10 18 11 12 13 14 16"
        )
        assert all231 == perm.parse_one_line(
            "3 4 5 6 1 2 8 9 7 12 14 15 16 17 10 18 11 13"
        )

    def test_eight_members_of_big_set(self):
        t = (1, 2, 7, 10, 11, 13)
        got = {
            perm.format_one_line(avoid321.perm_from_choices(t, forms))
            for forms in itertools.product(avoid321.FORM_CHOICES, repeat=3)
        }
        assert got == EIGHT_PERMS

    def test_segment_mismatch_rejected(self):
        with pytest.raises(ValueError, match="segment"):
            avoid321.perm_from_choices((1, 3), (perm.FORM_312,))
        with pytest.raises(ValueError, match="form"):
            avoid321.perm_from_choices((1,), ("213",))

    def test_choices_give_distinct_avoiders(self):
        for n in range(1, 5):
            seen = set()
            for t in avoid321.enumerate_tsets(n):
                h = _kernels.h_of_tset(t)
                fiber = {
                    avoid321.perm_from_choices(t, forms)
                    for forms in itertools.product(avoid321.FORM_CHOICES, repeat=h)
                }
                assert len(fiber) == 2**h
                for p in fiber:
                    assert perm.avoids(p, (3, 2, 1))
                assert seen.isdisjoint(fiber)
                seen.update(fiber)
            assert len(seen) == avoid321.count_321_via_tsets(n)

    @settings(max_examples=60)
    @given(sets_with_forms(7))
    def test_drawn_choices_build_321_avoiders(self, t_forms):
        # checked with the conftest references, not the library's own scans
        t, forms = t_forms
        p = avoid321.perm_from_choices(t, forms)
        assert cycle_lengths(p) == [3] * len(t)
        assert not naive_contains(p, (3, 2, 1))
        assert cycle_forms(p) == set(forms)
        assert tuple(c[0] for c in perm.cycle_decomposition(p).cycles) == t


class TestEnumerate321:
    def test_n2_matches_oracle(self):
        assert set(avoid321.enumerate_321(2)) == class_members(2)
        assert avoid321.count_321_via_tsets(2) == 10

    def test_matches_oracle(self):
        for n in (1, 2, 3):
            got = list(avoid321.enumerate_321(n))
            assert len(got) == len(set(got))
            assert set(got) == class_members(n)

    def test_order_pinned_n4(self):
        golden = Path(__file__).parent / "golden" / "enumerate_321_construction_n4.txt"
        got = "".join(perm.format_one_line(p) + "\n" for p in avoid321.enumerate_321(4))
        assert got == golden.read_text()


class TestStaircaseAutomaton:
    def test_greedy_steps_pinned(self, monkeypatch):
        # one rule step per state at each slot it does not fill with z.  The
        # forced z keeps every state on a staircase set.  A lax bound admits
        # paths that never reach the final state, so the count stays right
        # and only the steps show it: 247,678 if z is forced a slot late,
        # 2,012,033 if never
        real = _kernels.is_y_slot
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(_kernels, "is_y_slot", counting)
        assert avoid321.count_321_via_tsets(8) == 874562
        assert len(calls) == 1004

    def test_matches_sum_over_enumerated_sets(self):
        for n in range(1, 9):
            assert avoid321.count_321_via_tsets(n) == tset_sum_by_enumeration(n)

    def test_polynomial_matches_dyck_route(self):
        # at t = 2^b, 2^b above every coefficient, the sum's base-2^b digits
        # are the h-polynomial's coefficients
        for n in range(1, 11):
            b = avoid321.fuss_catalan(n).bit_length()
            packed = avoid321.tset_h_sum(n, 1 << b)
            coeffs = [(packed >> (b * h)) & ((1 << b) - 1) for h in range(n + 1)]
            assert packed >> (b * (n + 1)) == 0
            assert tuple(coeffs) == avoid321.h_polynomial(n).coefficients, n

    def test_at_one_counts_the_sets(self):
        for n in range(1, 9):
            assert avoid321.tset_h_sum(n, 1) == avoid321.fuss_catalan(n)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            avoid321.count_321_via_tsets(0)


class TestDyckRoute:
    def test_stats_worked_example(self):
        stats = avoid321.dyck_stats(DYCK_EXAMPLE)
        assert stats.h == 3
        assert stats.r == (0, 2, 1, 0, 1)
        assert stats.s == (0, 1, 2, 1, 0)
        assert stats.binomial_weight() == 9

    def test_stats_small(self):
        assert avoid321.dyck_stats("xy") == avoid321.DyckStats("xy", 1, (), ())
        assert avoid321.dyck_stats("xyxy") == avoid321.DyckStats("xyxy", 2, (1,), (1,))

    def test_stats_match_nested_scans(self):
        from threecycle import words

        for n in range(0, 10):
            for word in words.dyck_words(n, "x", "y"):
                assert avoid321.dyck_stats(word) == nested_scan_stats(word), word

    def test_stats_rejects_non_dyck(self):
        with pytest.raises(ValueError):
            avoid321.dyck_stats("yx")

    def test_tsets_for_dyck_examples(self):
        assert set(avoid321.tsets_for_dyck(DYCK_EXAMPLE)) == NINE_TSETS
        assert list(avoid321.tsets_for_dyck("xy")) == [(1,)]
        assert set(avoid321.tsets_for_dyck("xyxy")) == {(1, 3), (1, 4)}

    def test_tsets_for_dyck_rejects_empty_word(self):
        with pytest.raises(ValueError):
            list(avoid321.tsets_for_dyck(""))

    def test_fibers_partition_staircase_sets(self):
        from threecycle import words

        for n in range(1, 7):
            everything = set(avoid321.enumerate_tsets(n))
            seen = set()
            for word in words.dyck_words(n, "x", "y"):
                stats = avoid321.dyck_stats(word)
                fiber = set(avoid321.tsets_for_dyck(word))
                assert len(fiber) == stats.binomial_weight()
                assert seen.isdisjoint(fiber)
                seen.update(fiber)
            assert seen == everything

    def test_counting_routes_agree(self):
        for n in range(1, 9):
            via_t = avoid321.count_321_via_tsets(n)
            via_d = avoid321.count_321_via_dyck(n)
            f = avoid321.h_polynomial(n)
            assert via_t == via_d == f.evaluate(2)
            assert f.evaluate(1) == avoid321.fuss_catalan(n)

    def test_table_row(self):
        assert [avoid321.count_321_via_dyck(n) for n in range(1, 6)] == [
            2,
            10,
            60,
            388,
            2606,
        ]

    def test_count_matches_oracle(self):
        for n in (1, 2, 3):
            assert avoid321.count_321_via_dyck(n) == oracle.oracle_count(
                oracle.query(n, "321")
            )

    def test_h_polynomial_examples(self):
        assert avoid321.h_polynomial(1).coefficients == (0, 1)
        poly = avoid321.h_polynomial(2)
        assert poly.coefficients == (0, 1, 2)
        assert poly.evaluate(1) == 3 and poly.evaluate(2) == 10

    def test_identity(self):
        assert all(avoid321.dyck_identity_check(n) for n in range(1, 11))

    def test_subclass_count(self):
        for n in (1, 2, 3):
            assert avoid321.fuss_catalan(n) == oracle.oracle_count(
                oracle.query(n, "321", form="312")
            )


class TestDyckTransfer:
    def test_matches_the_per_word_sum(self):
        for n in range(1, 11):
            poly = avoid321.h_polynomial(n)
            for t in (1, 2, 3):
                assert avoid321.dyck_h_sum(n, t) == poly.evaluate(t), (n, t)

    def test_matches_the_staircase_automaton(self):
        for n in range(1, 13):
            assert avoid321.dyck_h_sum(n, 2) == avoid321.tset_h_sum(n, 2), n

    def test_polynomial_sums_dyck_stats_in_any_word_order(self, monkeypatch):
        # the prefix-sharing scan against dyck_stats word by word, with the
        # words in their own order, reversed and shuffled
        from threecycle import words

        real = words.dyck_words
        for n in range(1, 9):
            every = list(real(n, "x", "y"))
            coeffs = [0] * (n + 1)
            for stats in map(avoid321.dyck_stats, every):
                coeffs[stats.h] += stats.binomial_weight()
            shuffled = every[:]
            random.Random(n).shuffle(shuffled)
            for order in (every, every[::-1], shuffled):
                monkeypatch.setattr(words, "dyck_words", lambda *args: iter(order))
                assert avoid321.h_polynomial(n).coefficients == tuple(coeffs), n

    def test_identity_walks_no_word(self, monkeypatch):
        from threecycle import words

        def fail(*args):
            raise AssertionError("walked a Dyck word")

        monkeypatch.setattr(words, "dyck_words", fail)
        monkeypatch.setattr(avoid321, "dyck_stats", fail)
        assert all(avoid321.dyck_identity_check(n) for n in range(1, 13))

    @pytest.mark.parametrize(
        "top",
        [
            14,
            pytest.param(
                avoid321.TSET_LIMIT,
                marks=pytest.mark.skipif(
                    not os.environ.get("RUN_N6"),
                    reason="the bound's passes take about a minute and 300 MB,"
                    " opt in with RUN_N6=1",
                ),
            ),
        ],
    )
    def test_range_matches_each_n(self, top):
        # the pass at the top n holds every smaller n
        ns = range(1, top + 1)
        for t in (1, 2, 3):
            assert avoid321.dyck_h_sum(ns, t) == [avoid321.dyck_h_sum(n, t) for n in ns]
        assert avoid321.dyck_identity_check(ns) == [True] * top
        assert avoid321.dyck_identity_check(range(3, top + 1, 2)) == [True] * (
            (top - 1) // 2
        )

    @pytest.mark.parametrize(
        "ns",
        [range(3, 3), range(0, 4), range(-2, 3), range(5, 1, -1)],
        ids=["empty", "from-0", "negative", "decreasing"],
    )
    def test_rejects_bad_ranges_before_any_work(self, ns, monkeypatch):
        def fail(*args):
            raise AssertionError("closed a pair")

        monkeypatch.setattr(math, "comb", fail)
        for route in (
            lambda: avoid321.dyck_h_sum(ns, 2),
            lambda: avoid321.dyck_identity_check(ns),
            lambda: avoid321.tset_h_sum(ns, 2),
        ):
            with pytest.raises(ValueError, match="increasing range"):
                route()

    def test_range_over_the_bound_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("closed a pair")

        monkeypatch.setattr(math, "comb", fail)
        monkeypatch.setattr(_kernels, "is_y_slot", fail)
        top = avoid321.TSET_LIMIT + 1
        for route in (avoid321.dyck_h_sum, avoid321.tset_h_sum):
            with pytest.raises(ResourceLimitError, match=f"n={top} exceeds"):
                route(range(1, top + 1), 1)
        with pytest.raises(ResourceLimitError, match=f"n={top} exceeds"):
            avoid321.dyck_identity_check(range(top - 1, top + 1))

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            avoid321.dyck_h_sum(0, 1)

    def test_refused_before_any_work(self, monkeypatch):
        def fail(*args):
            raise AssertionError("closed a pair")

        monkeypatch.setattr(math, "comb", fail)
        n = avoid321.TSET_LIMIT + 1
        with pytest.raises(ResourceLimitError, match=f"n={n} exceeds"):
            avoid321.dyck_h_sum(n, 1)
        with pytest.raises(ResourceLimitError):
            avoid321.dyck_identity_check(n)
