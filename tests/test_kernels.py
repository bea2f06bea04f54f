"""The kernels: pattern containment, the pruned star walk behind every count
and enumeration, the avoidance profile and the balanced-prefix statistic."""

from __future__ import annotations

import itertools

import pytest

from conftest import (
    PATTERN_SETS,
    mark_members,
    naive_contains,
    select,
    star_by_filter,
)
from threecycle import _kernels, avoid321, perm

FORMS = (None, "312", "231")
QUERIES = [
    (((3, 2, 1),), None),
    (((2, 3, 1),), None),
    (((1, 3, 2),), "312"),
    (((3, 2, 1),), "312"),
    (((3, 2, 1),), "231"),
    (((1, 3, 2), (2, 1, 3)), None),
    (((1, 2, 3), (3, 2, 1)), None),
]


# One kernel module; the class keeps the ``[python]`` test ids it had when it
# ran over two interchangeable backends, so test histories line up.
@pytest.mark.parametrize("backend", [_kernels], ids=["python"])
class TestBackend:
    def test_contains_pattern3_exhaustive_small(self, backend):
        patterns = list(itertools.permutations((1, 2, 3)))
        for m in (3, 4, 5):
            for p in itertools.permutations(range(1, m + 1)):
                for sigma in patterns:
                    assert backend.contains_pattern3(p, sigma) == naive_contains(
                        p, sigma
                    )

    def test_count_matches_filtered_enumeration(self, backend):
        # every pattern set and form: the pruned walk counts exactly the
        # members of the unpruned stream that a naive scan finds avoiding
        for n in (1, 2, 3):
            marked = mark_members(perm.iterate_star(n))
            for patterns in PATTERN_SETS:
                for form in FORMS:
                    want = len(select(marked, patterns, form))
                    got = backend.count_avoiders(n, patterns, form)
                    assert got == want, (n, patterns, form)

    def test_profile_consistent_with_count(self, backend):
        order = {p: i for i, p in enumerate(backend.PROFILE_PATTERNS)}
        for n in (1, 2, 3):
            table = backend.avoidance_profile(n)
            for patterns, form in QUERIES:
                required = 0
                for sigma in patterns:
                    required |= 1 << order[sigma]
                rows = {None: (0, 1, 2), "312": (1,), "231": (2,)}[form]
                got = sum(
                    table[row][mask]
                    for row in rows
                    for mask in range(64)
                    if mask & required == required
                )
                assert got == backend.count_avoiders(n, patterns, form)

    def test_profile_total_is_star_cardinality(self, backend):
        for n in (1, 2, 3):
            table = backend.avoidance_profile(n)
            assert sum(sum(row) for row in table) == perm.star_cardinality(n)

    def test_first_choice_partition_sums(self, backend):
        # the first-cycle sub-walks partition every walk, form-restricted and
        # pruned ones included: counts and profiles add up, and the pruned
        # streams concatenate to the whole pruned stream in order
        for n in (2, 3):
            choices = perm.star_first_choices(n)
            for patterns, _ in QUERIES:
                for form in FORMS:
                    total = backend.count_avoiders(n, patterns, form)
                    parts = sum(
                        backend.count_avoiders(n, patterns, form, choice)
                        for choice in choices
                    )
                    assert parts == total, (n, patterns, form)
                    whole = list(perm.iterate_star(n, form=form, patterns=patterns))
                    pieces = [
                        p
                        for choice in choices
                        for p in perm.iterate_star(n, choice, form, patterns)
                    ]
                    assert pieces == whole, (n, patterns, form)
            table = [[0] * 64 for _ in range(3)]
            for choice in choices:
                part = backend.avoidance_profile(n, choice)
                for row in range(3):
                    for col in range(64):
                        table[row][col] += part[row][col]
            assert table == backend.avoidance_profile(n)

    def test_h_of_tset_matches_word_walk(self, backend):
        for n in range(1, 6):
            for t in avoid321.enumerate_tsets(n):
                h, _ = avoid321.h_and_segments(avoid321.word_of_tset(t))
                assert backend.h_of_tset(t) == h

    def test_invalid_first_choice_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), None, (1, 2, 1))
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), None, (2, 3, 7))
        with pytest.raises(ValueError):
            backend.avoidance_profile(2, (2, 3, 3))

    def test_invalid_form_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), "213")


def test_pruned_walk_matches_symmetric_group_filter():
    # independent of the walk altogether: filter all of S_{3n}
    for n in (1, 2):
        marked = mark_members(star_by_filter(n))
        for patterns in PATTERN_SETS:
            for form in FORMS:
                want = select(marked, patterns, form)
                got = list(perm.iterate_star(n, form=form, patterns=patterns))
                assert sorted(got) == sorted(want), (n, patterns, form)
                assert _kernels.count_avoiders(n, patterns, form) == len(want)
