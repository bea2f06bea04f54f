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

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

from threecycle import _kernels
from threecycle._kernels import FORM_231, FORM_312
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


def inverse(p: Perm) -> Perm:
    """The algebraic inverse.

    >>> inverse((3, 1, 2))
    (2, 3, 1)
    """
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


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

    >>> cycle_decomposition((2, 4, 1, 5, 3, 7, 6)).cycles
    ((1, 2, 4, 5, 3), (6, 7))
    """
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


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def format_cycles(p: Perm) -> str:
    """Cycle notation, e.g. ``"(1,3,2)(4,6,5)"``; fixed points print as (k)."""
    return "".join(
        "(" + ",".join(str(v) for v in cyc) + ")"
        for cyc in cycle_decomposition(p).cycles
    )


def parse_cycles(text: str) -> Perm:
    """Parse cycle notation produced by :func:`format_cycles`.

    Every element of [m] must appear exactly once (fixed points included), so
    the ground set is implied by the input.
    """
    stripped = text.replace(" ", "")
    if not stripped or _CYCLE_RE.sub("", stripped):
        raise PermutationError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    for group in _CYCLE_RE.findall(stripped):
        try:
            cyc = [int(tok) for tok in group.split(",")]
        except ValueError:
            raise PermutationError(f"cannot parse cycle notation: {text!r}") from None
        if not cyc:
            raise PermutationError(f"empty cycle in: {text!r}")
        cycles.append(cyc)
    elements = [v for cyc in cycles for v in cyc]
    m = len(elements)
    if any(not 1 <= v <= m for v in elements) or len(set(elements)) != m:
        raise PermutationError(f"cycles do not partition [{m}]: {text!r}")
    perm = [0] * m
    for cyc in cycles:
        for i, v in enumerate(cyc):
            perm[v - 1] = cyc[(i + 1) % len(cyc)]
    return check_permutation(perm)


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
    """Number of permutations of [3n] whose cycles are all 3-cycles:
    (3n)! / (n! 3^n), exact.

    >>> star_cardinality(2)
    40
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.factorial(3 * n) // (math.factorial(n) * 3**n)


def iterate_star(
    n: int, form: str | None = None, patterns: Sequence[Perm] = ()
) -> Iterator[Perm]:
    """Yield every permutation of [3n] composed only of 3-cycles, exactly once.

    Generation is direct: the smallest unplaced element picks its two cycle
    partners (pairs in lexicographic order) and one of the two cyclic
    orientations (a -> b -> c before a -> c -> b), so the stream order is
    reproducible.  ``form`` keeps only members whose cycles all have that
    form, and ``patterns`` (length 3) only members avoiding them all; both
    cut the stream without reordering it.  ``n = 0`` yields nothing.
    """
    for vals, _, _ in _kernels.star_walk(n, None, form, patterns):
        yield tuple(vals)
