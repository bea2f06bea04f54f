"""Permutations in one-line notation, their cycle structure, pattern
containment, the two basic symmetries, and the direct generator for
permutations built entirely from 3-cycles.

A permutation of [m] is stored as a tuple ``p`` with ``p[i] = image of i+1``,
i.e. the one-line word read left to right with 1-based values.  Cycle form is
always derived from the one-line word, never stored alongside it.

A 3-cycle (a, b, c) -- meaning a -> b -> c -> a with a the smallest element
-- occupies positions {a, b, c} and its three entries, read left to right,
realize the pattern 231 when b < c and 312 when c < b.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from threecycle import _kernels
from threecycle._kernels import FORM_231, FORM_312, inverse
from threecycle.errors import PermutationError

Perm = tuple[int, ...]


def check_permutation(values: Iterable[int]) -> Perm:
    """Validate that ``values`` is a bijection on [m] and return it as a tuple.

    >>> check_permutation([3, 1, 2])
    (3, 1, 2)
    """
    p = tuple(values)
    m = len(p)
    seen = [False] * (m + 1)
    for v in p:
        if not isinstance(v, int) or not 1 <= v <= m or seen[v]:
            raise PermutationError(f"not a permutation of [{m}]: {p}")
        seen[v] = True
    return p


def parse_one_line(text: str) -> Perm:
    """Parse space-separated one-line notation, e.g. ``"3 1 2"``."""
    try:
        values = [int(tok) for tok in text.split()]
    except ValueError:
        raise PermutationError(f"cannot parse one-line notation: {text!r}") from None
    if not values:
        raise PermutationError("empty one-line notation")
    return check_permutation(values)


def format_one_line(p: Sequence[int]) -> str:
    return " ".join(str(v) for v in p)


def reverse_complement(p: Perm) -> Perm:
    """The reverse-complement symmetry: q[i] = m+1 - p[m+1-i] (1-based).

    >>> reverse_complement((3, 1, 2))
    (2, 3, 1)
    """
    m = len(p)
    return tuple(m + 1 - v for v in reversed(p))


class CycleDecomposition(NamedTuple):
    """Disjoint cycles of a permutation.

    Each cycle starts at its smallest element and cycles are ordered by that
    element.  ``forms`` carries the per-cycle 312/231 tag exactly when every
    cycle has length 3 (``three_cycle_only``); otherwise it is None.
    """

    cycles: tuple[tuple[int, ...], ...]
    forms: tuple[str, ...] | None

    @property
    def three_cycle_only(self) -> bool:
        return self.forms is not None


def cycle_form(cycle: tuple[int, int, int]) -> str:
    """Form tag of the 3-cycle (a, b, c) with a the smallest element."""
    a, b, c = cycle
    return FORM_312 if c < b else FORM_231


def cycle_decomposition(p: Perm) -> CycleDecomposition:
    """Disjoint cycles of ``p``, with form tags when all cycles are 3-cycles.
    Anything but a permutation raises PermutationError, as a repeated value
    leaves a cycle that never returns to its start.

    >>> cycle_decomposition((2, 4, 1, 5, 3, 7, 6)).cycles
    ((1, 2, 4, 5, 3), (6, 7))
    """
    p = check_permutation(p)
    m = len(p)
    seen = [False] * (m + 1)
    cycles: list[tuple[int, ...]] = []
    all_three = True
    for start in range(1, m + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        v = p[start - 1]
        while v != start:
            cyc.append(v)
            seen[v] = True
            v = p[v - 1]
        if len(cyc) != 3:
            all_three = False
        cycles.append(tuple(cyc))
    forms = tuple(cycle_form(c) for c in cycles) if all_three else None
    return CycleDecomposition(tuple(cycles), forms)


def is_three_cycle_only(p: Perm) -> bool:
    return cycle_decomposition(p).three_cycle_only


def format_cycles(p: Perm) -> str:
    """Cycle notation, e.g. ``"(1,3,2)(4,6,5)"``; fixed points print as (k)."""
    return "".join(
        "(" + ",".join(str(v) for v in cyc) + ")"
        for cyc in cycle_decomposition(p).cycles
    )


def contains_pattern(p: Perm, sigma: Perm) -> bool:
    """True iff some subsequence of ``p`` is order-isomorphic to ``sigma``, a
    permutation of 1..3 (the only patterns the paper uses; others raise
    ValueError), by the star walk's containment scan."""
    return not avoids(p, sigma)


def avoids(p: Perm, *patterns: Perm) -> bool:
    """True iff ``p`` contains none of ``patterns`` (permutations of 1..3),
    all tested in one :func:`threecycle._kernels.contained_patterns` call."""
    wanted = _kernels.pattern_mask(patterns)
    return not _kernels.contained_patterns(p, (2 << len(p)) - 2, wanted)


def star_cardinality(n: int) -> int:
    """Number of permutations of [3n] whose cycles are all 3-cycles: each
    of the ``triple_splits(n)`` splits of [3n] into triples closes in 2^n
    ways.

    >>> star_cardinality(2)
    40
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _kernels.triple_splits(n) << n


#: The kernel's star stream, under the name whose yields bench/tracer.py counts
iterate_star = _kernels.star_members
