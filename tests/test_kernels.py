"""The kernels: pattern containment, the pruned star walk behind every count
and enumeration, the saturating avoidance profile and the balanced-prefix
statistic."""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
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
    rank_word,
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
            table = oracle.avoidance_profile(n)
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
        # no pair's part counts column 0; the merged table fills it from the
        # row totals, and the all-312 and all-231 rows hold one member per
        # split into triples
        for n in (1, 2, 3):
            for pair in backend.star_pairs(n):
                part = backend.avoidance_profile(n, pair)
                assert [row[0] for row in part] == [0, 0, 0], (n, pair)
            table = oracle.avoidance_profile(n)
            assert sum(sum(row) for row in table) == perm.star_cardinality(n)
            assert sum(table[1]) == sum(table[2]) == backend.triple_splits(n)
            assert min(row[0] for row in table) >= 0

    def test_first_choice_partition_sums(self, backend):
        # the root choices partition every walk, form-restricted and pruned
        # ones included: the pruned streams concatenate to the whole pruned
        # stream in order, and the partner pairs' counts, each covering both
        # orientations, add up to the naive filtered stream's; each pair's
        # profile is the histogram of its orbit share, and the shares add up
        # to the naive histogram but for column 0, which the oracle fills
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
            for pair, part in zip(pairs, parts):
                assert part == share_histogram(n, pair), (n, pair)
            want = leaf_histogram(perm.iterate_star(n))
            assert add_tables(*parts) == without_column_0(want), n

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
        # pairs of the right shape outside 1 < b < c <= 3n reach each
        # function's own check
        for pair in [(3, 2), (1, 2), (2, 7)]:
            with pytest.raises(ValueError, match="invalid root"):
                backend.count_avoiders(2, ((3, 2, 1),), None, pair)
            with pytest.raises(ValueError, match="invalid pair"):
                backend.avoidance_profile(2, pair)
        # every walk is rooted, and no root exists at n = 0; the enumeration
        # there loops over no pair
        with pytest.raises(ValueError):
            list(backend.star_walk(2, None))
        with pytest.raises(ValueError):
            list(backend.star_walk(0, (2, 3, "231")))
        assert list(perm.iterate_star(0)) == []
        # a root's top pairs (x, y), 1 < x < y < 3n, partner the top element
        # and hold no root element, and the root then does not hold the top
        # element: any other pair would overwrite placed entries, and a
        # repeated pair would walk its members twice
        for root in [
            (2, 3, "231", [(3, 5)]),  # overlaps the root
            (2, 3, "231", [(4, 5), (2, 4)]),  # a later pair overlaps it
            (2, 3, "231", [(4, 5), (4, 5)]),  # a repeated pair
            (2, 3, "231", [(1, 4)]),  # the root's element 1
            (2, 3, "231", [(5, 4)]),  # x > y
            (2, 3, "231", [(4, 4)]),  # x = y
            (2, 3, "231", [(4, 6)]),  # touches 3n
            (2, 3, "231", [(0, 5)]),  # out of range
            (2, 6, "231", [(4, 5)]),  # given when c = 3n
            (2, 3, "231", [(4, 5)], "231"),  # a fifth field
        ]:
            with pytest.raises(ValueError):
                list(backend.star_walk(2, root))

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


def without_column_0(table):
    return [[0, *row[1:]] for row in table]


def top_cycle(p):
    """The cycle 3n -> u -> v of the top element: its pair (x, y), x < y,
    and its form, 231 (x -> y -> 3n) when v > u and 312 (x -> 3n -> y)
    otherwise."""
    u = p[-1]
    v = p[u - 1]
    return (min(u, v), max(u, v)), "231" if v > u else "312"


def top_image(p):
    """The involution of the profile's orbit rule: with T the cycle of the
    top element 3n, reverse-complement after inverse when T is 231,
    reverse-complement when T is 312."""
    if top_cycle(p)[1] == "231":
        return perm.reverse_complement(perm.inverse(p))
    return perm.reverse_complement(p)


def root_pair(p):
    """The partner pair (b, c) of a member with root cycle 1 -> b -> c."""
    return p[0], p[p[0] - 1]


def orbit_key(p):
    """(N+1-y, N+1-x) for the top cycle {x, y, N} of ``p``, N = 3n, x < y."""
    m = len(p)
    (x, y), _ = top_cycle(p)
    return m + 1 - y, m + 1 - x


def walked_half(n):
    """The members with a root cycle 1 -> b -> c, pair by pair."""
    return [p for b, c in _kernels.star_pairs(n) for p in star_part(n, (b, c, "231"))]


@functools.cache
def orbit_share(n, pair):
    """The walked members a pair's profile counts, by the rule read off the
    members themselves: each member of the pair whose key is not below it,
    and the image of each whose key is above it."""
    share = []
    for p in star_part(n, (*pair, "231")):
        if orbit_key(p) >= pair:
            share.append(p)
        if orbit_key(p) > pair:
            share.append(top_image(p))
    return share


@functools.cache
def share_histogram(n, pair):
    """The histogram a pair's profile should hold: its orbit share and the
    share's inverses, the 1 -> c -> b members, with column 0 left out."""
    share = orbit_share(n, pair)
    return without_column_0(leaf_histogram(share + [perm.inverse(p) for p in share]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbit_rule(n):
    # the involution maps the walked half onto itself, its key is the root
    # pair of the image, and the pairs' weighted shares hold every walked
    # member exactly once
    walked = walked_half(n)
    members = set(walked)
    assert len(members) == len(walked) == perm.star_cardinality(n) // 2
    for p in walked:
        q = top_image(p)
        assert q in members and top_image(q) == p, p
        assert orbit_key(p) == root_pair(q), p
    shares = [p for pair in _kernels.star_pairs(n) for p in orbit_share(n, pair)]
    assert collections.Counter(shares) == collections.Counter(members)


def test_saturating_profile_matches_leaf_histogram():
    # the conftest pattern order is the profile's column order
    assert _kernels.PROFILE_PATTERNS == PATTERNS3
    for n in (1, 2, 3):
        for pair in _kernels.star_pairs(n):
            got = _kernels.avoidance_profile(n, pair)
            assert got == share_histogram(n, pair), (n, pair)
        assert oracle.avoidance_profile(n) == leaf_histogram(perm.iterate_star(n)), n


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


@pytest.mark.parametrize(
    "n, pattern_sets",
    [
        (1, [(), *PATTERN_SETS]),
        (2, [(), *PATTERN_SETS]),
        (3, [(), *PATTERN_SETS]),
        (4, [(sigma,) for sigma in PATTERNS3]),
    ],
)
def test_halved_enumeration_matches_plain_walk(n, pattern_sets):
    # iterate_star walks a self-mirrored query's root half once and sorts
    # the inverses into place: the stream, order included, is the plain
    # walks' under every root choice in turn
    for patterns in pattern_sets:
        for form in FORMS:
            plain = [
                p
                for choice in first_choices(n)
                for p in star_part(n, choice, form, patterns)
            ]
            got = list(perm.iterate_star(n, form=form, patterns=patterns))
            assert got == plain, (n, patterns, form)


def test_profile_n4_golden():
    # written by the leaf-by-leaf sweep that scanned every finished member
    golden = Path(__file__).parent / "golden" / "profile_n4.json"
    table = oracle.avoidance_profile(4)
    assert table == json.loads(golden.read_text())
    assert sum(map(sum, table)) == perm.star_cardinality(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_invariant_under_reverse_complement(n):
    # conjugating by i -> 3n + 1 - i keeps the cycle type, swaps the two
    # cycle forms, and maps containment of a pattern to containment of its
    # reverse-complement (132 <-> 213, 231 <-> 312).  rc after inverse keeps
    # the forms and swaps only 132 and 213.  The walk counts a member once
    # for its image under one of the two, relabelled, so a wrong relabel or
    # weight breaks the invariance.  Column 0 maps to itself, so its
    # subtraction is checked by the totals and the leaf histograms instead.
    table = oracle.avoidance_profile(n)
    rc = perm.reverse_complement
    assert mapped_histogram(table, rc, (0, 2, 1)) == table
    assert mapped_histogram(table, lambda s: rc(perm.inverse(s)), (0, 1, 2)) == table


@pytest.mark.parametrize("n", [2, 3])
def test_top_cycle_roots_partition_the_root_walk(n):
    # a root that does not hold the top element 3n, given every pair the top
    # element can close a cycle with, walks the root's members once each;
    # the top pairs one at a time walk the same members in the same order,
    # each pair's 231 cycle before its 312 one, and under a form only that
    # form's cycles yield
    m = 3 * n
    for b, c in _kernels.star_pairs(n):
        if c == m:
            continue
        rest = [v for v in range(2, m) if v not in (b, c)]
        tops = list(itertools.combinations(rest, 2))
        for form, patterns in [(None, ()), ("231", ()), (None, [(3, 2, 1)])]:
            got = star_part(n, (b, c, "231", tops), form, patterns)
            whole = star_part(n, (b, c, "231"), form, patterns)
            assert sorted(got) == sorted(whole), (n, b, c, form, patterns)
            assert len(set(got)) == len(got)
            pieces = [
                star_part(n, (b, c, "231", [top]), form, patterns) for top in tops
            ]
            assert [p for piece in pieces for p in piece] == got
            for top, piece in zip(tops, pieces):
                cycles = [top_cycle(p) for p in piece]
                assert {pair for pair, _ in cycles} <= {top}
                forms = [f for _, f in cycles]
                assert forms == sorted(forms)
                assert set(forms) <= ({form} if form else {"231", "312"})


def test_profile_walk_yields_only_unsaturated_members():
    # at n = 4 the walked halves hold 123,200 members, and the walk yields
    # only the 386 that do not contain all six patterns; the rest are column
    # 0 of the profile, by subtraction
    yields = [
        mask
        for b, c in _kernels.star_pairs(4)
        for _, mask in _kernels.star_walk(
            4, (b, c, _kernels.FORM_231), None, _kernels.PROFILE_PATTERNS, False
        )
    ]
    assert len(yields) == 386
    assert 63 not in yields


def test_triple_splits_times_orientations_is_star_cardinality():
    for k in range(1, 7):
        assert _kernels.triple_splits(k) * 2**k == perm.star_cardinality(k)
    assert _kernels.triple_splits(0) == 1


@pytest.mark.parametrize(
    "prefix,first,rows",
    [
        # the cycles (1,5,2)(3,6,4), so far: all six patterns
        ((5, 1, 6, 3, 2, 4), (2, 5, _kernels.FORM_312), (30, 10, 0)),
        # (1,2,5)(3,4,6)
        ((2, 5, 4, 6, 1, 3), (2, 5, _kernels.FORM_231), (30, 0, 10)),
        # (1,2,5)(3,6,4)
        ((2, 5, 6, 3, 1, 4), (2, 5, _kernels.FORM_231), (40, 0, 0)),
    ],
    ids=["all-312", "all-231", "mixed"],
)
def test_saturated_prefix_split(prefix, first, rows):
    # two cycles placed at n = 4 already contain all six patterns; the 40
    # completions put the star set of [7..12] on the free positions
    completions = [
        prefix + tuple(v + 6 for v in rest) for rest in perm.iterate_star(2)
    ]
    want = leaf_histogram(completions)
    assert [row[0] for row in want] == list(rows)
    assert sum(map(sum, want)) == sum(rows)
    # the unpruned walk yields none of them: the saturated subtree is dropped
    hits = [
        vals
        for vals, _ in _kernels.star_walk(
            4, first, None, _kernels.PROFILE_PATTERNS, False
        )
        if tuple(vals[:6]) == prefix
    ]
    assert hits == []
    # nor does the pair's profile count them: it is the histogram of its
    # orbit share but for column 0, which the merged table fills by
    # subtraction, so it counts them there
    assert _kernels.avoidance_profile(4, (2, 5)) == share_histogram(4, (2, 5))
    table = oracle.avoidance_profile(4)
    assert all(row[0] >= count for row, count in zip(table, rows))


needs_n5 = pytest.mark.skipif(
    not os.environ.get("RUN_N5"),
    reason="n=5 walks take seconds, opt in with RUN_N5=1",
)


@pytest.mark.parametrize(
    "run,scans,asked,dropped",
    [
        pytest.param(lambda: oracle.avoidance_profile(3), 506, 793, 227, id="profile"),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(3, "321")),
            251,
            251,
            527,
            id="count-321",
        ),
        pytest.param(
            lambda: oracle.avoidance_profile(4), 4370, 5459, 22020, id="profile-n4"
        ),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(4, "321")),
            2052,
            2052,
            11287,
            id="count-321-n4",
        ),
        pytest.param(
            lambda: whole_count(4, [(1, 3, 2)]), 3501, 3501, 19458, id="count-132-n4"
        ),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(4, "213")),
            2012,
            2012,
            14843,
            id="count-213-n4",
        ),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(4, "132")),
            2012,
            2012,
            14843,
            id="oracle-count-132-n4",
        ),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(4, "132", form="312")),
            1343,
            1343,
            5985,
            id="oracle-count-132-312-n4",
        ),
        pytest.param(
            lambda: list(perm.iterate_star(4, patterns=[(1, 3, 2)])),
            3501,
            3501,
            19458,
            id="enumerate-132-n4",
        ),
        pytest.param(
            lambda: list(perm.iterate_star(4, patterns=[(2, 3, 1)])),
            1583,
            1583,
            11439,
            id="enumerate-231-n4",
        ),
        pytest.param(
            lambda: list(perm.iterate_star(4, form="312", patterns=[(1, 3, 2)])),
            1664,
            1664,
            7155,
            id="enumerate-132-312-n4",
        ),
        pytest.param(
            lambda: list(perm.iterate_star(4, form="231", patterns=[(3, 2, 1)])),
            929,
            929,
            4277,
            id="enumerate-321-231-n4",
        ),
        pytest.param(
            lambda: oracle.oracle_count(oracle.query(5, "213")),
            16033,
            16033,
            286528,
            id="count-213-n5",
            marks=needs_n5,
        ),
        pytest.param(
            lambda: oracle.avoidance_profile(5),
            40160,
            43954,
            494521,
            id="profile-n5",
            marks=needs_n5,
        ),
    ],
)
def test_walk_containment_tests_pinned(run, scans, asked, dropped, monkeypatch):
    # the results above do not show how much work the walk does; the number
    # of containment scans (one per child placed) and of patterns they are
    # asked for do.  Walking a saturated subtree, or a subtree that already
    # contains an avoided pattern, or the 1 -> c -> b root half that the
    # inverses give, raises the scans; losing the mask of the patterns
    # already contained raises the patterns asked for.  The profile walks
    # one member of each orbit under the top cycle's involution, in one
    # walk per root pair that places the root once.  The oracle counts 132
    # as its twin 213, and a count or enumerate walks each pair's root half
    # once when the query is its own inverse image, and both roots directly
    # otherwise.  A child whose cycle form or dead cells settle it is
    # dropped unscanned, the last cycle on its parent frame's cells too, and
    # a profile child on one open pattern's dead cells is not asked for that
    # pattern: with both rules off (no form bits, and no dead cells, so no
    # cells for the last cycle either) the walk scans ``dropped`` more
    # children, and answers the same.
    real = _kernels.contained_patterns
    seen = [0, 0]

    def counting(values, bits, wanted):
        seen[0] += 1
        seen[1] += bin(wanted).count("1")
        return real(values, bits, wanted)

    monkeypatch.setattr(_kernels, "contained_patterns", counting)
    got = run()
    assert seen == [scans, asked]
    seen[:] = [0, 0]
    monkeypatch.setattr(_kernels, "_FORM_BITS", dict.fromkeys(_kernels._FORM_BITS, 0))
    monkeypatch.setattr(_kernels, "dead_cells", lambda values, *_: [0] * len(values))
    assert run() == got
    assert seen[0] - scans == dropped


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "run",
    [oracle.avoidance_profile, lambda n: whole_count(n, [(3, 2, 1)])],
    ids=["profile", "count-321"],
)
def test_dead_cells_marked_in_every_frame_but_the_root_and_the_last(
    run, n, monkeypatch
):
    # the root frame has no placed entry to complete a pattern with, and the
    # last cycle, on the three entries left, has no frame of its own: it is
    # checked on its parent frame's cells.  Every frame between marks its
    # dead cells
    real = _kernels.dead_cells
    depths = set()

    def watching(values, free, wanted):
        placed = sum(1 for v in values if v)
        assert placed >= 1 and len(values) - placed >= 6, values
        depths.add(placed // 3 + 1)  # the frame places cycle number depth
        return real(values, free, wanted)

    monkeypatch.setattr(_kernels, "dead_cells", watching)
    run(n)
    assert depths == set(range(2, n))


@pytest.mark.parametrize("n, calls", [(1, 1), (2, 7), (3, 25), (4, 50)])
def test_profile_walks_once_per_root_pair(n, calls, monkeypatch):
    # one star_walk call per root pair that has a member to count, the kept
    # top pairs making its second frame: at n = 4, 50 of the 55 pairs (the
    # members of the five pairs (b, 12) with b > 6 are counted as the images
    # of lower pairs' members)
    real = _kernels.star_walk
    roots = []

    def counting(n, root, *args):
        roots.append(root)
        return real(n, root, *args)

    monkeypatch.setattr(_kernels, "star_walk", counting)
    oracle.avoidance_profile(n)
    assert len(roots) == calls
    assert len({root[:2] for root in roots}) == calls


@pytest.mark.parametrize(
    "run",
    [
        lambda: perm.avoids((2, 4, 1, 3), (1, 3, 2)),
        lambda: list(perm.iterate_star(2, patterns=[(2, 1, 3)])),
        lambda: whole_count(2, [(2, 3, 1)]),
        lambda: oracle.avoidance_profile(2),
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

    rules = {
        bit: (guarded(scan), sweep, rev)
        for bit, (scan, sweep, rev) in _kernels._RULES.items()
    }
    monkeypatch.setattr(_kernels, "_RULES", rules)
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


def completed_patterns(values, free):
    """For each position, a dict from each value ``v`` in ``free`` to the
    mask of PATTERNS3 that ``v`` there, if the position is unplaced (0),
    realizes with two nonzero entries of ``values``, by ranking every such
    triple."""
    placed = [(i, v) for i, v in enumerate(values) if v]
    free_values = [v for v in range(free.bit_length()) if free >> v & 1]
    cells = []
    for p, at in enumerate(values):
        masks = dict.fromkeys([] if at else free_values, 0)
        for v in masks:
            for x, y in itertools.combinations(placed, 2):
                triple = [value for _, value in sorted([x, y, (p, v)])]
                masks[v] |= 1 << PATTERNS3.index(rank_word(triple))
        cells.append(masks)
    return cells


def naive_dead_cells(cells, wanted):
    """The dead cells of ``wanted`` from :func:`completed_patterns`."""
    return [
        sum(1 << v for v, mask in masks.items() if mask & wanted) for masks in cells
    ]


def test_dead_cells_match_naive_on_every_small_placement():
    # every placement of values from 1..m on positions 0..m-1, m <= 6, the
    # full ones and those already containing the pattern included; the free
    # values are the rest of 1..m and m + 1, or none
    for m in range(7):
        for k in range(m + 1):
            for vals in itertools.permutations(range(1, m + 1), k):
                free = (4 << m) - 2 & ~sum(1 << v for v in vals)
                for slots in itertools.combinations(range(m), k):
                    values = [0] * m
                    for slot, v in zip(slots, vals):
                        values[slot] = v
                    cells = completed_patterns(values, free)
                    for wanted in (1, 2, 4, 8, 16, 32, 63):
                        want = naive_dead_cells(cells, wanted)
                        got = _kernels.dead_cells(values, free, wanted)
                        assert got == want, (values, wanted)
                    assert _kernels.dead_cells(values, 0, 63) == [0] * m, values


@given(
    st.lists(st.integers(1, 18), unique=True, max_size=18),
    st.lists(st.integers(0, 18), max_size=18),
    st.integers(0, (1 << 20) - 1),
    st.integers(0, 63),
)
def test_dead_cells_match_naive_on_partial_placements(values, holes, free, wanted):
    # distinct values with gaps, unplaced entries anywhere, any free values
    # not placed, up to 18 positions
    free &= ~sum(1 << v for v in values) & ~1
    for at in holes[: 18 - len(values)]:
        values.insert(at, 0)
    want = naive_dead_cells(completed_patterns(values, free), wanted)
    assert _kernels.dead_cells(values, free, wanted) == want


def test_walk_mask_bits_follow_profile_patterns():
    # bit i of a yielded mask is PROFILE_PATTERNS[i], whatever the order or
    # repetition of the walk's patterns
    patterns = [(3, 2, 1), (1, 2, 3), (3, 2, 1)]
    masks = {
        tuple(vals): mask
        for choice in first_choices(2)
        for vals, mask in _kernels.star_walk(2, choice, None, patterns, False)
    }
    for vals, mask in masks.items():
        assert mask == naive_mask(vals) & 33, vals


@pytest.mark.parametrize(
    "pattern", [(1, 2), (1, 2, 3, 4), (1, 1, 2), (1, 2, 4), (0, 5, 9), "123"]
)
def test_malformed_patterns_refused_before_walking(pattern):
    with pytest.raises(ValueError, match="patterns must have length 3"):
        _kernels.pattern_mask([pattern])
    walk = _kernels.star_walk(2, (2, 3, "231"), None, [(3, 2, 1), pattern])
    with pytest.raises(ValueError, match="patterns must have length 3"):
        next(walk)
    with pytest.raises(ValueError, match="patterns must have length 3"):
        _kernels.count_avoiders(1, [pattern], None, (2, 3))
