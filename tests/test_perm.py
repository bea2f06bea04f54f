"""Core permutation machinery: notation, cycles, patterns, symmetries, and
the direct star generator."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import first_choices, naive_contains, star_by_filter, star_part
from threecycle import perm
from threecycle.errors import PermutationError

PATTERNS3 = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]

perms_upto8 = st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
)


class TestNotation:
    def test_parse_format_round_trip(self):
        p = perm.parse_one_line("3 1 2")
        assert p == (3, 1, 2)
        assert perm.format_one_line(p) == "3 1 2"

    def test_parse_rejects_garbage(self):
        for text in ("", "a b", "1 1", "0 1", "2 3"):
            with pytest.raises(PermutationError):
                perm.parse_one_line(text)

    def test_check_permutation(self):
        assert perm.check_permutation([2, 1]) == (2, 1)
        with pytest.raises(PermutationError):
            perm.check_permutation([1, 3])

    def test_format_cycles(self):
        p = perm.parse_one_line("2 4 1 5 3 7 6")
        assert perm.format_cycles(p) == "(1,2,4,5,3)(6,7)"
        assert perm.format_cycles((1, 2, 3)) == "(1)(2)(3)"


# the src imported above, so that a subprocess runs the code under test
SRC = Path(perm.__file__).parent.parent


@pytest.mark.parametrize(
    "call",
    [
        "perm.is_three_cycle_only((2, 2, 3))",
        "perm.format_cycles((3, 3, 1))",
        "avoid231.decode((2, 2, 3))",
        "avoid132.t_partition((2, 2, 3))",
    ],
)
def test_repeated_value_refused_not_looped(call):
    # a repeated value leaves some start that no value reaches, so a cycle
    # walk from it would never return; each call runs in its own process so
    # that such a loop fails the test in seconds instead of hanging the run
    code = (
        "from threecycle import avoid132, avoid231, perm\n"
        "from threecycle.errors import PermutationError\n"
        "try:\n"
        f"    {call}\n"
        "except PermutationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('not refused')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr


class TestCycles:
    def test_mixed_cycle_type_example(self):
        d = perm.cycle_decomposition(perm.parse_one_line("2 4 1 5 3 7 6"))
        assert d.cycles == ((1, 2, 4, 5, 3), (6, 7))
        assert not d.three_cycle_only
        assert d.forms is None

    def test_single_312_cycle(self):
        d = perm.cycle_decomposition((3, 1, 2))
        assert d.cycles == ((1, 3, 2),)
        assert d.forms == (perm.FORM_312,)

    def test_single_231_cycle(self):
        d = perm.cycle_decomposition((2, 3, 1))
        assert d.forms == (perm.FORM_231,)

    def test_identity_is_fixed_points(self):
        d = perm.cycle_decomposition((1, 2, 3))
        assert d.cycles == ((1,), (2,), (3,))
        assert not d.three_cycle_only

    def test_forms_match_realized_patterns(self, star_sets):
        # the form tag must equal the pattern the cycle's entries realize
        for p in star_sets[2]:
            d = perm.cycle_decomposition(p)
            for cycle, form in zip(d.cycles, d.forms):
                positions = sorted(cycle)
                entries = [p[pos - 1] for pos in positions]
                lo, mid, hi = sorted(entries)
                realized = "".join(
                    str({lo: 1, mid: 2, hi: 3}[e]) for e in entries
                )
                assert realized == form


class TestPatterns:
    def test_paper_examples(self):
        assert not perm.contains_pattern(
            perm.parse_one_line("2 4 1 5 3 7 6"), (3, 2, 1)
        )
        assert not perm.contains_pattern((3, 1, 2), (2, 3, 1))
        assert not perm.contains_pattern(
            perm.parse_one_line("6 3 4 2 1 5"), (1, 3, 2)
        )

    def test_longer_pattern_than_perm_is_absent(self):
        assert not perm.contains_pattern((2, 1), (1, 3, 2))

    def test_matches_naive_scan_on_star_set(self, star_sets):
        for p in star_sets[2]:
            for sigma in PATTERNS3:
                assert perm.contains_pattern(p, sigma) == naive_contains(p, sigma)

    @given(perms_upto8, st.sampled_from(PATTERNS3))
    def test_matches_naive_scan_random(self, values, sigma):
        p = tuple(values)
        assert perm.contains_pattern(p, sigma) == naive_contains(p, sigma)

    @pytest.mark.parametrize("sigma", [(2, 1), (1, 3, 2, 4)])
    def test_other_lengths_refused(self, sigma):
        p = (2, 3, 1, 5, 6, 4)  # avoids 321, so avoids reaches sigma
        with pytest.raises(ValueError, match="patterns must have length 3"):
            perm.contains_pattern(p, sigma)
        with pytest.raises(ValueError, match="patterns must have length 3"):
            perm.avoids(p, (3, 2, 1), sigma)

    @pytest.mark.parametrize("sigma", [(1, 1, 2), (1, 2, 4), (0, 5, 9)])
    def test_non_permutation_patterns_refused(self, sigma):
        with pytest.raises(ValueError, match="patterns must have length 3"):
            perm.contains_pattern((1, 2, 3), sigma)
        with pytest.raises(ValueError, match="patterns must have length 3"):
            perm.avoids((1, 2, 3), sigma)

    @given(perms_upto8, st.sets(st.sampled_from(PATTERNS3)))
    def test_avoids_matches_naive_scan_random(self, values, patterns):
        p = tuple(values)
        want = not any(naive_contains(p, sigma) for sigma in patterns)
        assert perm.avoids(p, *patterns) == want


class TestSymmetries:
    def test_inverse_examples(self):
        assert perm.inverse((3, 1, 2)) == (2, 3, 1)
        assert perm.inverse((1, 2, 3)) == (1, 2, 3)

    def test_inverse_is_involution_on_example(self):
        p = perm.parse_one_line("2 4 1 5 3 7 6")
        q = perm.inverse(p)
        assert q != p
        assert perm.inverse(q) == p
        # defining property: q[p[i]] = i, 1-based
        assert all(q[p[i - 1] - 1] == i for i in range(1, 8))

    def test_reverse_complement_examples(self):
        assert perm.reverse_complement((3, 1, 2)) == (2, 3, 1)
        assert perm.reverse_complement((1, 2, 3)) == (1, 2, 3)

    @given(perms_upto8)
    def test_involutions_random(self, values):
        p = tuple(values)
        assert perm.inverse(perm.inverse(p)) == p
        assert perm.reverse_complement(perm.reverse_complement(p)) == p

    def test_symmetries_preserve_star_membership(self, star_sets):
        members = set(star_sets[2])
        for p in members:
            assert perm.inverse(p) in members
            assert perm.reverse_complement(p) in members

    def test_symmetry_counts(self, star_sets):
        # avoiding 231 and avoiding 312 are equinumerous, as are 132 and 213
        for n in (1, 2, 3):
            members = star_sets[n]
            count = {
                sigma: sum(1 for p in members if perm.avoids(p, sigma))
                for sigma in PATTERNS3
            }
            assert count[(2, 3, 1)] == count[(3, 1, 2)]
            assert count[(1, 3, 2)] == count[(2, 1, 3)]


class TestStarGenerator:
    def test_n1(self):
        assert set(perm.iterate_star(1)) == {(3, 1, 2), (2, 3, 1)}

    def test_n0_empty(self):
        assert list(perm.iterate_star(0)) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            list(perm.iterate_star(-1))

    def test_unknown_form_rejected(self):
        # at n = 0 there is no root pair to walk, so the halved enumeration
        # of a self-inverse query must check the form itself
        for n in (0, 1):
            for patterns in ((), [(1, 3, 2)], [(2, 3, 1)]):
                with pytest.raises(ValueError, match="unknown form"):
                    list(perm.iterate_star(n, form="213", patterns=patterns))

    def test_matches_filtered_symmetric_group(self):
        for n in (1, 2):
            assert sorted(perm.iterate_star(n)) == sorted(star_by_filter(n))

    def test_no_duplicates_and_cardinality(self, star_sets):
        for n in range(1, 5):
            members = star_sets[n]
            assert len(members) == len(set(members)) == perm.star_cardinality(n)

    def test_every_member_is_three_cycle_only(self, star_sets):
        assert all(perm.is_three_cycle_only(p) for p in star_sets[3])

    def test_cardinality_values(self):
        # (3n)! / (n! 3^n), evaluated independently
        for n in (1, 2, 3, 5):
            expected = math.factorial(3 * n) // (math.factorial(n) * 3**n)
            assert perm.star_cardinality(n) == expected
        assert perm.star_cardinality(1) == 2
        assert perm.star_cardinality(2) == 40
        assert perm.star_cardinality(5) == 44844800

    def test_deterministic_order(self):
        assert list(perm.iterate_star(2)) == list(perm.iterate_star(2))

    def test_first_choice_substreams_partition(self):
        full = list(perm.iterate_star(2))
        pieces = [star_part(2, c) for c in first_choices(2)]
        flat = [p for piece in pieces for p in piece]
        assert len(flat) == len(full)
        assert set(flat) == set(full)
