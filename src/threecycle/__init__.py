"""Exact enumeration of pattern-avoiding permutations built from 3-cycles.

The package couples three kinds of machinery and cross-checks them against
each other:

* closed-form and bijective counts per avoided pattern (avoid231, avoid132,
  avoid321) with the constructions behind them;
* an exact truncated integer power-series engine realizing the generating
  functions (series);
* an exhaustive oracle over the star set (oracle), a pattern-pruned walk
  that consults no formula, the ground truth every formula is tested against.

The package is pure Python.  ``threecycle._kernels`` holds the star walk
with its one-pattern containment scans, and the staircase scan behind
every z/x/y word and its balanced-prefix statistic.
"""

from threecycle.errors import (
    InternalInvariantError,
    MembershipError,
    PermutationError,
    ResourceLimitError,
)
from threecycle.perm import (
    FORM_231,
    FORM_312,
    CycleDecomposition,
    Perm,
    avoids,
    check_permutation,
    contains_pattern,
    cycle_decomposition,
    format_cycles,
    format_one_line,
    inverse,
    is_three_cycle_only,
    iterate_star,
    parse_one_line,
    reverse_complement,
    star_cardinality,
)
from threecycle.oracle import (
    AvoidanceQuery,
    closed_form_123,
    closed_form_pair,
    oracle_count,
    oracle_enumerate,
)

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Always "python", the one kernel implementation; the benchmark records it."""
    return "python"


__all__ = [
    "AvoidanceQuery",
    "CycleDecomposition",
    "FORM_231",
    "FORM_312",
    "InternalInvariantError",
    "MembershipError",
    "Perm",
    "PermutationError",
    "ResourceLimitError",
    "avoids",
    "check_permutation",
    "closed_form_123",
    "closed_form_pair",
    "contains_pattern",
    "cycle_decomposition",
    "format_cycles",
    "format_one_line",
    "inverse",
    "is_three_cycle_only",
    "iterate_star",
    "kernel_backend",
    "oracle_count",
    "oracle_enumerate",
    "parse_one_line",
    "reverse_complement",
    "star_cardinality",
]
