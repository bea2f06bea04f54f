"""The kernels: pattern containment, the pruned star walk behind every count
and enumeration, the saturating avoidance profile and the balanced-prefix
statistic."""

from __future__ import annotations

import functools
import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    PATTERN_SETS,
    PATTERNS3,
    first_choices,
    mark_members,
    naive_contains,
    select,
    staircase_word,
    star_by_filter,
    star_part,
)
from threecycle import _kernels, avoid321, oracle, perm

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


def whole_count(n, patterns, form=None):
    """The kernel's count over every root partner pair: the whole walk."""
    return sum(
        _kernels.count_avoiders(n, patterns, form, pair)
        for pair in _kernels.star_pairs(n)
    )


def whole_profile(n):
    """The kernel's profile tables over every root partner pair, added."""
    return add_tables(
        *(_kernels.avoidance_profile(n, pair) for pair in _kernels.star_pairs(n))
    )


# One kernel module; the class keeps the ``[python]`` test ids it had when it
# ran over two interchangeable backends, so test histories line up.
@pytest.mark.parametrize("backend", [_kernels], ids=["python"])
class TestBackend:
    def test_contains_pattern3_exhaustive_small(self, backend):
        # the one containment entry point, perm.contains_pattern, over the
        # kernel's scan
        patterns = list(itertools.permutations((1, 2, 3)))
        for m in (3, 4, 5):
            for p in itertools.permutations(range(1, m + 1)):
                for sigma in patterns:
                    assert perm.contains_pattern(p, sigma) == naive_contains(
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
                    got = whole_count(n, patterns, form)
                    assert got == want, (n, patterns, form)

    def test_profile_consistent_with_count(self, backend):
        order = {p: i for i, p in enumerate(backend.PROFILE_PATTERNS)}
        for n in (1, 2, 3):
            table = whole_profile(n)
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
                assert got == whole_count(n, patterns, form)

    def test_profile_total_is_star_cardinality(self, backend):
        for n in (1, 2, 3):
            table = whole_profile(n)
            assert sum(sum(row) for row in table) == perm.star_cardinality(n)

    def test_first_choice_partition_sums(self, backend):
        # the root choices partition every walk, form-restricted and pruned
        # ones included: the pruned streams concatenate to the whole pruned
        # stream in order, and the partner pairs' counts and profiles, each
        # covering both orientations, add up to the naive filtered stream's
        for n in (2, 3):
            pairs = _kernels.star_pairs(n)
            marked = mark_members(perm.iterate_star(n))
            for patterns, _ in QUERIES:
                for form in FORMS:
                    parts = sum(
                        backend.count_avoiders(n, patterns, form, pair)
                        for pair in pairs
                    )
                    want = select(marked, patterns, form)
                    assert parts == len(want), (n, patterns, form)
                    whole = list(perm.iterate_star(n, form=form, patterns=patterns))
                    pieces = [
                        p
                        for choice in first_choices(n)
                        for p in star_part(n, choice, form, patterns)
                    ]
                    assert pieces == whole == want, (n, patterns, form)
            parts = [backend.avoidance_profile(n, pair) for pair in pairs]
            assert add_tables(*parts) == leaf_histogram(perm.iterate_star(n))

    def test_h_of_tset_matches_word_walk(self, backend):
        # against the letter-by-letter reference, not the scan it wraps
        for n in range(1, 8):
            for t in avoid321.enumerate_tsets(n):
                assert backend.h_of_tset(t) == staircase_word(t)[1], t

    def test_scan_cuts_match_word_walk(self, backend):
        # the cuts are the y counts at which the reference counts h
        for n in range(1, 8):
            for t in avoid321.enumerate_tsets(n):
                word, _, cuts = staircase_word(t)
                codes, got = backend.tset_scan(t)
                assert (codes.decode(), got) == (word, cuts), t

    def test_invalid_first_choice_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), None, (1, 2, 1))
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), None, (2, 3, 7))
        with pytest.raises(ValueError):
            backend.avoidance_profile(2, (2, 3, 3))

    def test_invalid_form_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.count_avoiders(2, ((3, 2, 1),), "213", (2, 3))


def test_pruned_walk_matches_symmetric_group_filter():
    # independent of the walk altogether: filter all of S_{3n}
    for n in (1, 2):
        marked = mark_members(star_by_filter(n))
        for patterns in PATTERN_SETS:
            for form in FORMS:
                want = select(marked, patterns, form)
                got = list(perm.iterate_star(n, form=form, patterns=patterns))
                assert sorted(got) == sorted(want), (n, patterns, form)
                assert whole_count(n, patterns, form) == len(want)


def leaf_histogram(members):
    """The avoidance-profile table of ``members``, one member at a time:
    naive containment scans for the column, the member's cycle forms for the
    row."""
    table = [[0] * 64 for _ in range(3)]
    for _, contained, forms in mark_members(members):
        row = 1 if forms == {"312"} else 2 if forms == {"231"} else 0
        table[row][63 ^ contained] += 1
    return table


def add_tables(*tables):
    return [[sum(cells) for cells in zip(*rows)] for rows in zip(*tables)]


def test_saturating_profile_matches_leaf_histogram():
    # the conftest pattern order is the profile's column order
    assert _kernels.PROFILE_PATTERNS == PATTERNS3
    for n in (1, 2, 3):
        parts = []
        for b, c in _kernels.star_pairs(n):
            members = star_part(n, (b, c, "231")) + star_part(n, (b, c, "312"))
            parts.append(leaf_histogram(members))
            assert _kernels.avoidance_profile(n, (b, c)) == parts[-1], (n, b, c)
        assert oracle.avoidance_profile(n) == add_tables(*parts), n


def mapped_histogram(table, f, rows):
    """``table`` relabelled as the histogram of the images of its members
    under a symmetry: row ``r`` moves to ``rows[r]``, and each column's
    avoided patterns are replaced by their images under ``f``."""
    out = [[0] * 64 for _ in range(3)]
    for row, to_row in enumerate(rows):
        for col in range(64):
            image = sum(
                1 << PATTERNS3.index(f(sigma))
                for i, sigma in enumerate(PATTERNS3)
                if col >> i & 1
            )
            out[to_row][image] += table[row][col]
    return out


def test_inverse_half_mirrors_walked_half():
    # the 1 -> c -> b half of each pair is the inverse image of the walked
    # 1 -> b -> c half, so the kernel's pair counts, which walk only the
    # latter, match both orientations' members (the pair profiles are
    # checked against both halves' leaves above)
    for n in (1, 2, 3):
        for b, c in _kernels.star_pairs(n):
            walked = star_part(n, (b, c, "231"))
            mirrored = star_part(n, (b, c, "312"))
            assert sorted(map(perm.inverse, walked)) == sorted(mirrored)
            # inversion swaps rows 1 (all-312) and 2 (all-231)
            hist = mapped_histogram(leaf_histogram(walked), perm.inverse, (0, 2, 1))
            assert leaf_histogram(mirrored) == hist, (n, b, c)
            marked = mark_members(walked + mirrored)
            for patterns in PATTERN_SETS:
                for form in FORMS:
                    want = len(select(marked, patterns, form))
                    got = _kernels.count_avoiders(n, patterns, form, (b, c))
                    assert got == want, (n, b, c, patterns, form)


def test_profile_n4_golden():
    # written by the leaf-by-leaf sweep that scanned every finished member
    golden = Path(__file__).parent / "golden" / "profile_n4.json"
    table = whole_profile(4)
    assert table == json.loads(golden.read_text())
    assert sum(map(sum, table)) == perm.star_cardinality(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_invariant_under_reverse_complement(n):
    # conjugating by i -> 3n + 1 - i keeps the cycle type, swaps the two
    # cycle forms, and maps containment of a pattern to containment of its
    # reverse-complement (132 <-> 213, 231 <-> 312).  The walk uses only
    # inversion, so this checks its root choice and its mirrored half
    # against a symmetry it does not use.  rc after inverse keeps the forms
    # and swaps only 132 and 213.  Column 0 maps to itself, so its
    # subtraction is checked by the totals and the pair histograms instead.
    table = oracle.avoidance_profile(n)
    rc = perm.reverse_complement
    assert mapped_histogram(table, rc, (0, 2, 1)) == table
    assert mapped_histogram(table, lambda s: rc(perm.inverse(s)), (0, 1, 2)) == table


def test_profile_walk_yields_only_unsaturated_members():
    # at n = 4 the walked halves hold 123,200 members, and the walk yields
    # only the 386 that do not contain all six patterns; the rest are column
    # 0 of the profile, by subtraction
    yields = [
        mask
        for b, c in _kernels.star_pairs(4)
        for _, _, mask in _kernels.star_walk(
            4, (b, c, _kernels.FORM_231), None, _kernels.PROFILE_PATTERNS, False
        )
    ]
    assert len(yields) == 386
    assert 63 not in yields


def test_triple_splits_times_orientations_is_star_cardinality():
    for k in range(1, 7):
        assert _kernels.triple_splits(k) * 2**k == perm.star_cardinality(k)
    assert _kernels.triple_splits(0) == 1


@functools.cache
def pair_histogram(n, pair):
    """The leaf histogram of the members whose root cycle uses ``pair``,
    both orientations."""
    b, c = pair
    return leaf_histogram(star_part(n, (b, c, "231")) + star_part(n, (b, c, "312")))


@pytest.mark.parametrize(
    "cycles,first,n231,rows",
    [
        # (1,5,2)(3,6,4) is one-line 5 1 6 3 2 4 so far: all six patterns
        ("(1,5,2)(3,6,4)", (2, 5, _kernels.FORM_312), 0, (30, 10, 0)),
        ("(1,2,5)(3,4,6)", (2, 5, _kernels.FORM_231), 2, (30, 0, 10)),
        ("(1,2,5)(3,6,4)", (2, 5, _kernels.FORM_231), 1, (40, 0, 0)),
    ],
    ids=["all-312", "all-231", "mixed"],
)
def test_saturated_prefix_split(cycles, first, n231, rows):
    # two cycles placed at n = 4 already contain all six patterns; the 40
    # completions put the star set of [7..12] on the free positions
    prefix = perm.parse_cycles(cycles)
    completions = [
        prefix + tuple(v + 6 for v in rest) for rest in perm.iterate_star(2)
    ]
    want = leaf_histogram(completions)
    assert [row[0] for row in want] == list(rows)
    assert sum(map(sum, want)) == sum(rows)
    assert _kernels.completion_rows(n231, 2, 2) == rows
    # the unpruned walk yields none of them: the saturated subtree is dropped
    hits = [
        vals
        for vals, _, _ in _kernels.star_walk(
            4, first, None, _kernels.PROFILE_PATTERNS, False
        )
        if tuple(vals[:6]) == prefix
    ]
    assert hits == []
    # and the pair's profile, whose column 0 is filled by subtraction, still
    # counts them there: it is the histogram of the pair's members
    table = _kernels.avoidance_profile(4, (2, 5))
    assert table == pair_histogram(4, (2, 5))
    assert all(row[0] >= count for row, count in zip(table, rows))


@pytest.mark.parametrize(
    "run,scans,asked",
    [
        (lambda: oracle.avoidance_profile(3), 1348, 4028),
        (lambda: oracle.oracle_count(oracle.query(3, "321")), 778, 778),
        (lambda: oracle.avoidance_profile(4), 51263, 81910),
        (lambda: oracle.oracle_count(oracle.query(4, "321")), 13339, 13339),
        (lambda: oracle.oracle_count(oracle.query(4, "132")), 22959, 22959),
        (lambda: oracle.oracle_count(oracle.query(4, "213")), 16855, 16855),
    ],
    ids=[
        "profile",
        "count-321",
        "profile-n4",
        "count-321-n4",
        "count-132-n4",
        "count-213-n4",
    ],
)
def test_walk_containment_tests_pinned(run, scans, asked, monkeypatch):
    # the results above do not show how much work the walk does; the number
    # of containment scans (one per node visited) and of patterns they are
    # asked for do.  Walking a saturated subtree, or a subtree that already
    # contains an avoided pattern, or the 1 -> c -> b root half that the
    # inverses give, raises the scans; losing the mask of the patterns
    # already contained raises the patterns asked for.
    real = _kernels.contained_patterns
    seen = [0, 0]

    def counting(values, bits, wanted):
        seen[0] += 1
        seen[1] += bin(wanted).count("1")
        return real(values, bits, wanted)

    monkeypatch.setattr(_kernels, "contained_patterns", counting)
    run()
    assert seen == [scans, asked]


@pytest.mark.parametrize(
    "run",
    [
        lambda: perm.avoids((2, 4, 1, 3), (1, 3, 2)),
        lambda: list(perm.iterate_star(2, patterns=[(2, 1, 3)])),
        lambda: whole_count(2, [(2, 3, 1)]),
        lambda: whole_profile(2),
    ],
    ids=["avoids", "iterate_star", "count_avoiders", "avoidance_profile"],
)
def test_one_pattern_scans_run_only_inside_contained_patterns(run, monkeypatch):
    # the pinned scan counts above see a node only through the module's
    # contained_patterns: every caller looks it up there, and the one-pattern
    # scans run only from inside it
    real = _kernels.contained_patterns
    calls = [0]
    inside = [False]

    def counting(values, bits, wanted):
        calls[0] += 1
        inside[0] = True
        try:
            return real(values, bits, wanted)
        finally:
            inside[0] = False

    def guarded(scan):
        def run_scan(values, bits):
            assert inside[0], "a one-pattern scan ran outside contained_patterns"
            return scan(values, bits)

        return run_scan

    scans = {bit: (guarded(scan), rev) for bit, (scan, rev) in _kernels._SCANS.items()}
    monkeypatch.setattr(_kernels, "_SCANS", scans)
    monkeypatch.setattr(_kernels, "contained_patterns", counting)
    run()
    assert calls[0] > 0


def naive_mask(values):
    """The mask of PATTERNS3 that the nonzero entries of ``values`` contain,
    by naive_contains."""
    placed = [v for v in values if v]
    return sum(
        1 << i for i, sigma in enumerate(PATTERNS3) if naive_contains(placed, sigma)
    )


def test_scan_matches_naive_on_every_permutation_and_wanted_set():
    # the scan stops once every wanted pattern is found: it must never stop
    # before, nor report a pattern that was not wanted
    for m in range(8):
        bits = (2 << m) - 2
        for p in itertools.permutations(range(1, m + 1)):
            contained = naive_mask(p)
            for wanted in range(64):
                got = _kernels.contained_patterns(p, bits, wanted)
                assert got == contained & wanted, (p, wanted)


def walk_like_buffers():
    """Every permutation of 1..6 with one 0 inserted at each index, and every
    permutation of 1..5 with two 0s inserted, as the walk's buffers hold
    unplaced entries."""
    for p in itertools.permutations(range(1, 7)):
        for at in range(7):
            yield p[:at] + (0,) + p[at:]
    for p in itertools.permutations(range(1, 6)):
        for i, j in itertools.combinations_with_replacement(range(6), 2):
            yield p[:i] + (0,) + p[i:j] + (0,) + p[j:]


def test_one_pattern_scans_on_walk_like_buffers():
    # each one-bit mask runs one scan, forwards for 123, 132 and 213 and over
    # the reversed values for 231, 312 and 321; the full mask runs all six
    for values in walk_like_buffers():
        bits = sum(1 << v for v in values if v)
        contained = naive_mask(values)
        for wanted in (1, 2, 4, 8, 16, 32, 63):
            got = _kernels.contained_patterns(values, bits, wanted)
            assert got == contained & wanted, (values, wanted)


@given(
    st.lists(st.integers(1, 18), unique=True, max_size=18),
    st.lists(st.integers(0, 18), max_size=6),
    st.integers(0, 63),
)
def test_scan_matches_naive_on_partial_placements(values, holes, wanted):
    # distinct values with gaps, and unplaced (0) entries anywhere, as in a
    # star-walk buffer
    bits = sum(1 << v for v in values)
    for at in holes:
        values.insert(at, 0)
    contained = naive_mask(values)
    assert _kernels.contained_patterns(values, bits, wanted) == contained & wanted


def test_walk_mask_bits_follow_profile_patterns():
    # bit i of a yielded mask is PROFILE_PATTERNS[i], whatever the order or
    # repetition of the walk's patterns
    patterns = [(3, 2, 1), (1, 2, 3), (3, 2, 1)]
    masks = {
        tuple(vals): mask
        for vals, _, mask in _kernels.star_walk(2, None, None, patterns, False)
    }
    for vals, mask in masks.items():
        assert mask == naive_mask(vals) & 33, vals


@pytest.mark.parametrize(
    "pattern", [(1, 2), (1, 2, 3, 4), (1, 1, 2), (1, 2, 4), (0, 5, 9), "123"]
)
def test_malformed_patterns_refused_before_walking(pattern):
    with pytest.raises(ValueError, match="patterns must have length 3"):
        _kernels.pattern_mask([pattern])
    walk = _kernels.star_walk(2, None, None, [(3, 2, 1), pattern])
    with pytest.raises(ValueError, match="patterns must have length 3"):
        next(walk)
    with pytest.raises(ValueError, match="patterns must have length 3"):
        _kernels.count_avoiders(1, [pattern], None, (2, 3))
