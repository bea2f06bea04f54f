"""Command-line surface: counting, enumeration, verification, series,
bijection round-trips, and the lattice-path correspondence.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 resource
refusal, 141 output cut off by a closed pipe (128 + SIGPIPE, what a shell
reports for a program a broken pipe kills), e.g. ``threecycle paths --n 9 |
head``.  Output is deterministic byte for byte, including across worker
counts, so it can be diffed or golden-filed.

A call imports only what every verb needs: ``json`` is imported where JSON
is printed (``_print_json``), and ``pickle`` where the oracle forks its
workers (:mod:`threecycle.oracle`).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Callable, Iterable, NamedTuple, Sequence

from threecycle import avoid132, avoid231, avoid321, oracle, perm, series
from threecycle.errors import ResourceLimitError


class UsageError(Exception):
    pass


def _parse_pattern_set(text: str) -> tuple[perm.Perm, ...]:
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise UsageError(f"empty pattern in {text!r}")
        try:
            sigma = perm.check_permutation(tuple(int(ch) for ch in token))
        except ValueError:
            raise UsageError(f"not a pattern: {token!r}") from None
        if len(sigma) != 3:
            raise UsageError(f"patterns must have length 3: {text!r}")
        out.append(sigma)
    if len(set(out)) != len(out):
        raise UsageError(f"duplicate patterns in {text!r}")
    return tuple(out)


def _parse_n_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if sep else lo) + 1)
    except ValueError:
        raise UsageError(f"bad n or n-range: {text!r}") from None
    if not values:
        raise UsageError(f"empty n range: {text!r}")
    if values.start < 1:
        raise UsageError(f"n values must be >= 1: {text!r}")
    return values


def _parse_form(text: str) -> str | None:
    if text == "all":
        return None
    if text in (perm.FORM_312, perm.FORM_231):
        return text
    raise UsageError(f"form must be all, 312 or 231: {text!r}")


def _render(values: Iterable[int]) -> list[str]:
    """Every value as decimal text, made before the first line is printed:
    a value over Python's int-to-text digit limit is refused, not printed in
    part."""
    try:
        return [str(v) for v in values]
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(
            f"an answer has more than {limit} digits, Python's limit for printing"
        ) from None


def _print_json(value: object) -> None:
    """``value`` as one line of JSON, keys sorted.  ``json`` is imported
    here, so only a call that prints JSON loads it."""
    import json

    print(json.dumps(value, sort_keys=True))


_PATTERN_NAMES = ("123", "132", "213", "231", "312", "321")


def formula_counts(
    ns: range, patterns: Sequence[perm.Perm], form: str | None
) -> list[int]:
    """The counts for every n in ``ns`` by the closed-form/bijective routes;
    raises UsageError for combinations the formulas do not cover.  The 132
    and 213 routes read every n off one series of the largest order, the
    321 route off one automaton pass; the others compute the largest n
    first.  Either way a refusal comes before any other work."""
    patterns = tuple(patterns)
    if len(patterns) == 2:
        if form is not None:
            raise UsageError("no formula for pattern pairs with a form filter")
        return _largest_first(ns, lambda n: oracle.closed_form_pair(n, patterns))
    if len(patterns) != 1:
        raise UsageError("formula engine handles one pattern or a pair")
    sigma = "".join(str(v) for v in patterns[0])
    if sigma in ("132", "213"):
        # all-312 and all-231 subclasses are equinumerous by symmetry
        return (avoid132.count_132 if form is None else avoid132.count_all312)(ns)
    if sigma == "321":
        if form is None:
            return avoid321.count_321_via_tsets(ns)
        return _largest_first(ns, avoid321.fuss_catalan)
    if sigma in ("231", "312"):
        # a cycle of the pattern's own form contains the pattern
        return _largest_first(ns, avoid231.count_231 if form != sigma else lambda n: 0)
    if form is None:
        return _largest_first(ns, oracle.closed_form_123)
    raise UsageError(
        f"no formula for pattern {sigma} with form {form};"
        " use --engine oracle"
    )


def _largest_first(ns: range, route: Callable[[int], int]) -> list[int]:
    """``route`` of each n in ``ns``, the largest n computed first."""
    last = route(ns[-1])
    return [*map(route, ns[:-1]), last]


def formula_count(n: int, patterns: Sequence[perm.Perm], form: str | None) -> int:
    """:func:`formula_counts` for one n."""
    return formula_counts(range(n, n + 1), patterns, form)[0]


#: The most n values one ``count`` answers: avoid231.COUNT_LIMIT, the
#: longest range any bounded route answers.  The 123 and pair routes have no
#: bound on n, so this is their only limit.
RANGE_LIMIT = avoid231.COUNT_LIMIT


def _cmd_count(args: argparse.Namespace) -> int:
    patterns = _parse_pattern_set(args.pattern)
    form = _parse_form(args.form)
    ns = _parse_n_range(args.n)
    if len(ns) > RANGE_LIMIT:
        raise ResourceLimitError(
            f"the range {args.n} has {len(ns)} values, over the bound {RANGE_LIMIT}"
        )
    if args.engine == "formula":
        counts = formula_counts(ns, patterns, form)
    else:
        counts = oracle.oracle_counts(ns, frozenset(patterns), form, args.jobs)
    texts = _render(counts)
    if args.format == "text":
        print(" ".join(texts))
    elif args.format == "bfile":
        for n, c in zip(ns, texts):
            print(f"{n} {c}")
    else:
        for n, c in zip(ns, counts):  # json converts c again; _render checked it fits
            record = {
                "n": n,
                "patterns": ["".join(str(v) for v in p) for p in sorted(patterns)],
                "form": form,
                "count": c,
            }
            _print_json(record)
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    patterns = _parse_pattern_set(args.pattern)
    form = _parse_form(args.form)
    ns = _parse_n_range(args.n)
    # a bad pattern is a usage error before any refusal, and both come first
    oracle.AvoidanceQuery(ns[-1], frozenset(patterns), form)
    oracle.check_limits(ns[-1])
    for n in ns:
        q = oracle.AvoidanceQuery(n, frozenset(patterns), form)
        for p in oracle.oracle_enumerate(q):
            if args.format == "jsonl":
                record = {
                    "n": n,
                    "perm": list(p),
                    "cycles": perm.format_cycles(p),
                }
                _print_json(record)
            else:
                print(perm.format_one_line(p))
    return 0


def _cmd_series(args: argparse.Namespace) -> int:
    makers = {
        "A": series.series_A,
        "B": series.series_B,
        "catalan": series.catalan_series,
        "motzkin": series.motzkin_series,
    }
    texts = _render(makers[args.which](args.order).coeffs)
    if args.format == "json":
        _print_json(texts)
    else:
        for n, c in enumerate(texts):
            print(f"{n}: {c}")
    return 0


def _cmd_encode(args: argparse.Namespace) -> int:
    print(perm.format_one_line(avoid231.encode(args.word)))
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    p = perm.parse_one_line(args.perm)
    print(avoid231.decode(p))
    return 0


def _cmd_hpoly(args: argparse.Namespace) -> int:
    print(" ".join(_render(avoid321.h_polynomial(args.n).coefficients)))
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    given = [x is not None for x in (args.t, args.path, args.n)]
    if sum(given) != 1:
        raise UsageError("give exactly one of --t, --path, --n")
    if args.t is not None:
        t = tuple(int(tok) for tok in args.t.split(","))
        print(avoid321.tset_to_path(t))
    elif args.path is not None:
        t = avoid321.path_to_tset(args.path)
        print(",".join(str(v) for v in t))
    else:
        for t in avoid321.enumerate_tsets(args.n):
            print(",".join(str(v) for v in t) + " " + avoid321.tset_to_path(t))
    return 0


class Check(NamedTuple):
    """A row of the verify suite: for each n in ``ns(max_n)`` the values
    ``sides(n, profile)`` returns must be equal.  ``profile`` is the shared
    ``oracle.avoidance_profile(n)`` table (all n's swept together by
    ``oracle.avoidance_profiles``) if the row ``sweeps``, else None."""

    label: str
    selected_by: tuple[str, ...]  # single --pattern names; "all" selects every row
    ns: Callable[[int], range]
    sides: Callable[[int, list[list[int]] | None], tuple]
    passed: str  # the pass line; {last} is the last n checked
    sweeps: bool = False


def _sweep_check(
    label: str,
    selected_by: tuple[str, ...],
    queries: Sequence[tuple[str, str | None]],
    passed: str,
) -> Check:
    """formula_count against the swept profile for each (patterns, form)."""
    parsed = [(_parse_pattern_set(text), form) for text, form in queries]
    return Check(
        label,
        selected_by,
        lambda max_n: range(1, max_n + 1),
        lambda n, profile: (
            [formula_count(n, pats, form) for pats, form in parsed],
            [oracle.profile_count(profile, pats, form) for pats, form in parsed],
        ),
        passed,
        sweeps=True,
    )


def _encode_image_sides(n: int, _profile: None) -> tuple:
    q = oracle.AvoidanceQuery(n, frozenset({(2, 3, 1)}))
    want = set(oracle.oracle_enumerate(q))
    got = {avoid231.encode(w) for w in avoid231.words(n - 1)}
    return (want, avoid231.count_231(n)), (got, len(got))


def _series_identity_sides(order: int, _profile: None) -> tuple:
    # B is built as 2A/(1 - A), so B(1 - A) = 2A alone re-checks the
    # division; the paper's A = (c - 1) m(c - 1), composed, checks A itself
    a = series.series_A(order)
    b = series.series_B(order)
    u = series.catalan_series(order) - series.one(order)
    composed = u * series.motzkin_series(order).compose(u)
    return b * (series.one(order) - a), a.scale(2), composed.scale(2)


# Each route is looked up through its module when a row runs, never stored
# here, so a rebound or monkeypatched module attribute is the one checked.
CHECKS = (
    *(
        _sweep_check(
            f"pattern {name}",
            (name,),
            [(name, None)],
            f"pattern {name}: formula=oracle for n=1..{{last}}",
        )
        for name in _PATTERN_NAMES
    ),
    _sweep_check(
        "pairs",
        (),
        [(",".join(pair), None) for pair in itertools.combinations(_PATTERN_NAMES, 2)],
        "pairs: closed-form=oracle for n=1..{last} (15 pairs)",
    ),
    _sweep_check(
        "subclasses",
        (),
        [("132", perm.FORM_312), ("321", perm.FORM_312), ("321", perm.FORM_231)],
        "subclasses: formula=oracle for n=1..{last} (132|312, 321|312, 321|231)",
    ),
    Check(
        "bijection 231",
        ("231", "312"),
        lambda max_n: range(1, max_n + 1),
        _encode_image_sides,
        "bijection 231: encode image matches oracle for n=1..{last}",
    ),
    Check(
        "series identity",
        ("132", "213"),
        lambda max_n: range(20, 21),
        _series_identity_sides,
        "identity: series B*(1-A) = 2A to order {last}",
    ),
    # the per-word Dyck sum pins the Dyck-path transfer that "Dyck identity" reads
    Check(
        "route check 321",
        ("321",),
        lambda max_n: range(1, 9),
        lambda n, _profile: (
            avoid321.count_321_via_tsets(n),
            avoid321.count_321_via_dyck(n),
            avoid321.dyck_h_sum(n, 2),
        ),
        "route check 321: staircase sum = Dyck sum = f(2) for n=1..{last}",
    ),
    Check(
        "Dyck identity",
        ("321",),
        lambda max_n: range(1, 11),
        lambda n, _profile: (avoid321.dyck_identity_check(n), True),
        "identity: Dyck binomial sum = Fuss-Catalan for n=1..{last}",
    ),
)


def _select_checks(text: str) -> tuple[Check, ...]:
    """The rows ``verify --pattern text`` runs: every row for "all", the rows
    one pattern name selects, or one row for a pair of distinct names."""
    if text == "all":
        return CHECKS
    names = [token.strip() for token in text.split(",")]
    if len(names) == 1 and names[0] in _PATTERN_NAMES:
        return tuple(check for check in CHECKS if names[0] in check.selected_by)
    if len(set(names)) == len(names) == 2 and set(names) <= set(_PATTERN_NAMES):
        pair = ",".join(names)
        passed = f"pair {pair}: closed-form=oracle for n=1..{{last}}"
        return (_sweep_check(f"pair {pair}", (), [(pair, None)], passed),)
    raise UsageError(
        f"verify takes all, one of {', '.join(_PATTERN_NAMES)}, or two distinct"
        f" of them joined by a comma, not {text!r}"
    )


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n < 1:
        raise UsageError("--max-n must be >= 1")
    checks = _select_checks(args.pattern)
    oracle.check_limits(args.max_n)
    sizes = range(1, args.max_n + 1)
    tables = oracle.avoidance_profiles(sizes, args.jobs)
    profiles = dict(zip(sizes, tables))
    failed = False
    for check in checks:
        ns = check.ns(args.max_n)
        bad = []
        for n in ns:
            sides = check.sides(n, profiles[n] if check.sweeps else None)
            if any(side != sides[0] for side in sides):
                bad.append((n, *sides))
        failed |= bool(bad)
        passed = check.passed.format(last=ns[-1])
        print(f"{check.label}: MISMATCH {bad}" if bad else passed)
    print("FAIL" if failed else "PASS")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threecycle",
        description="Exact counts, constructions and cross-checks for "
        "pattern-avoiding permutations built from 3-cycles.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="count avoiders for n or an n-range")
    p.add_argument("--pattern", required=True, help='e.g. "321" or a pair "132,213"')
    p.add_argument("--n", required=True, help='size parameter, e.g. "4" or "1..5"')
    p.add_argument("--form", default="all", help="cycle form filter: all, 312 or 231")
    p.add_argument("--engine", choices=("formula", "oracle"), default="formula")
    p.add_argument("--format", choices=("text", "jsonl", "bfile"), default="text")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list the avoiders themselves")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--form", default="all")
    p.add_argument("--format", choices=("text", "jsonl"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="formula-vs-oracle and identity suites")
    p.add_argument("--pattern", default="all", help="a pattern, a pair, or 'all'")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("series", help="print generating-function coefficients")
    p.add_argument("--which", choices=("A", "B", "catalan", "motzkin"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("encode", help="E/L/R word -> 231-avoiding permutation")
    p.add_argument("--word", required=True, help='letters E, L, R; "" gives the seed')
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="231-avoiding permutation -> E/L/R word")
    p.add_argument("--perm", required=True, help='one-line notation, e.g. "6 5 1 2 4 3"')
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("hpoly", help="balanced-prefix polynomial coefficients")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_hpoly)

    p = sub.add_parser("paths", help="staircase set <-> lattice path")
    p.add_argument("--t", help='comma-separated staircase set, e.g. "1,4"')
    p.add_argument("--path", help='word over E/N, e.g. "EENEEN"')
    p.add_argument("--n", type=int, help="list all sets of this size with paths")
    p.set_defaults(func=_cmd_paths)

    return parser


#: The exit code when the reader of stdout closes it first.
EXIT_BROKEN_PIPE = 141


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "jobs" in args and args.jobs < 1:  # count and verify, on every engine
            raise UsageError(f"jobs must be >= 1, got {args.jobs}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # what is left in the buffer goes to the null device, so the
        # interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
