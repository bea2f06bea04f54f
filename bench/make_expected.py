#!/usr/bin/env python3
"""Write ``bench/expected.json``: the expected answer of every query the
benchmark can generate, full size and tiny.

Each answer comes from a route other than the one the query runs, and is
cross-checked at creation against a third source where one exists:

* oracle counts at n = 4 and enumerate line counts: the paper's table,
  checked against this file's own brute force (its own star generator and
  a naive triple scan) at n <= 3;
* the oracle pair at n = 4: ``oracle.closed_form_pair`` (a symmetry-class
  lookup, not a search), checked against the brute force at n = 3;
* the 132 ladder and ``series --which B``: a composition DP over this
  file's own A coefficients, checked against ``series.series_B``;
* the all-312 132 ladder and ``series --which A``: ``sum_k M[k-1] [x^n]
  (C - 1)^k`` with Catalan and Motzkin numbers from their closed forms,
  checked against ``series.series_A``;
* ``hpoly`` and the 321 ladder: the staircase-set route (``h_of_tset``
  over ``enumerate_tsets``; the query runs the Dyck-word route), checked
  against ``h_polynomial(n).evaluate(2)``, the paper's table and
  Fuss-Catalan;
* the 231 ladder: ``3^(n-1)``; the 321 ladder with a form: Fuss-Catalan
  ``binom(3n, n) / (2n + 1)``; both checked against the brute force;
* ``verify``: the exact report of a passing run.

Run from the repository root: ``python3 bench/make_expected.py`` (about
15 s, most of it the n = 10 staircase sets).
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from threecycle import _kernels, avoid321, oracle, series  # noqa: E402

import check  # noqa: E402
import workloads  # noqa: E402

PATTERNS = ("123", "132", "213", "231", "312", "321")

# The paper's table, n = 1..5.
TABLE = {
    "231": [1, 3, 9, 27, 81],
    "312": [1, 3, 9, 27, 81],
    "132": [2, 8, 36, 170, 824],
    "213": [2, 8, 36, 170, 824],
    "321": [2, 10, 60, 388, 2606],
    "123": [2, 6, 0, 0, 0],
}


def star_perms(n: int):
    """Every permutation of [3n] made of 3-cycles, with the form ("231" when
    the smallest element maps to the middle one, else "312") of each cycle."""
    m = 3 * n
    p = [0] * (m + 1)

    def rec(free: list[int], forms: list[str]):
        if not free:
            yield tuple(p[1:]), tuple(forms)
            return
        a, rest = free[0], free[1:]
        for b, c in itertools.combinations(rest, 2):
            left = [x for x in rest if x not in (b, c)]
            for form, image in (("231", (b, c, a)), ("312", (c, a, b))):
                p[a], p[b], p[c] = image
                yield from rec(left, forms + [form])

    yield from rec(list(range(1, m + 1)), [])


def brute_count(n: int, patterns: list[str], form: str | None = None) -> int:
    return sum(
        1
        for p, forms in star_perms(n)
        if (form is None or all(f == form for f in forms))
        and not any(check.contains(p, s) for s in patterns)
    )


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def motzkin(k: int) -> int:
    return sum(math.comb(k, 2 * j) * catalan(j) for j in range(k // 2 + 1))


def fuss_catalan(n: int) -> int:
    return math.comb(3 * n, n) // (2 * n + 1)


def series_ab(order: int) -> tuple[list[int], list[int]]:
    """Coefficients 0..order of A = sum_k M[k-1] (C - 1)^k and of
    B = 2A / (1 - A) = 2 sum_k A^k, by plain convolution DPs."""
    c1 = [0] + [catalan(k) for k in range(1, order + 1)]
    a = [0] * (order + 1)
    power = [1] + [0] * order  # (C - 1)^0
    for k in range(1, order + 1):
        power = [
            sum(power[i] * c1[j - i] for i in range(j + 1)) for j in range(order + 1)
        ]
        mk = motzkin(k - 1)
        for j in range(order + 1):
            a[j] += mk * power[j]
    s = [1] + [0] * order  # s[n] = sum over compositions of n of prod A[x_i]
    for j in range(1, order + 1):
        s[j] = sum(a[x] * s[j - x] for x in range(1, j + 1))
    return a, [0] + [2 * v for v in s[1:]]


def hpoly_by_tsets(n: int) -> list[int]:
    coeffs = [0] * (n + 1)
    for t in avoid321.enumerate_tsets(n):
        coeffs[_kernels.h_of_tset(t)] += 1
    return coeffs


def verify_lines(max_n: int) -> list[str]:
    lines = [f"pattern {p}: formula=oracle for n=1..{max_n}" for p in PATTERNS]
    lines += [
        f"pairs: closed-form=oracle for n=1..{max_n} (15 pairs)",
        f"subclasses: formula=oracle for n=1..{max_n} (132|312, 321|312, 321|231)",
        f"bijection 231: encode image matches oracle for n=1..{min(max_n, 4)}",
        "identity: series B*(1-A) = 2A to order 20",
        "route check 321: staircase sum = Dyck sum = f(2) for n=1..8",
        "identity: Dyck binomial sum = Fuss-Catalan for n=1..10",
        "PASS",
    ]
    return lines


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"cross-check failed: {what}")


def answers() -> dict[str, dict]:
    for n in (1, 2, 3):
        for p in PATTERNS:
            require(brute_count(n, [p]) == TABLE[p][n - 1], f"table {p} n={n}")
        require(brute_count(n, ["231", "321"]) == brute_count(n, ["312", "321"]), "pair twins")
        for form in ("312", "231"):
            require(brute_count(n, ["321"], form) == fuss_catalan(n), f"321|{form} n={n}")
            require(
                brute_count(n, ["132" if form == "312" else "213"], form)
                == [1, 3, 11][n - 1],
                f"132|{form} n={n}",
            )
    pair3 = brute_count(3, ["231", "321"])
    require(oracle.closed_form_pair(3, [(2, 3, 1), (3, 2, 1)]) == pair3, "pair n=3")

    order = 150
    a, b = series_ab(order)
    require(a == list(series.series_A(order).coeffs), "series A")
    require(b == list(series.series_B(order).coeffs), "series B")
    require(b[1:6] == TABLE["132"] and a[1:5] == [1, 3, 11, 44], "A, B vs table")

    hpolys = {n: hpoly_by_tsets(n) for n in range(1, 11)}
    for n, coeffs in hpolys.items():
        require(sum(coeffs) == fuss_catalan(n), f"hpoly({n}) at 1")
        require(
            avoid321.h_polynomial(n).evaluate(2)
            == sum(c << h for h, c in enumerate(coeffs)),
            f"hpoly({n}) at 2",
        )
    ladder321 = [sum(c << h for h, c in enumerate(hpolys[n])) for n in range(1, 11)]
    require(ladder321[:5] == TABLE["321"], "321 ladder vs table")

    out: dict[str, dict] = {}

    def ints(key: str, values: list[int]) -> None:
        out[key] = {"kind": "ints", "values": values}

    for n in (2, 4):
        for p in PATTERNS:
            ints(f"count --engine oracle --pattern {p} --n {n}", [TABLE[p][n - 1]])
            out[f"enumerate --pattern {p} --n {n}"] = {
                "kind": "enumerate",
                "pattern": p,
                "n": n,
                "count": TABLE[p][n - 1],
            }
    pair = {2: brute_count(2, ["231", "321"]), 4: oracle.closed_form_pair(4, [(2, 3, 1), (3, 2, 1)])}
    for n, value in pair.items():
        for twin in ("231,321", "312,321"):
            ints(f"count --engine oracle --pattern {twin} --n {n}", [value])
    for n in (2, 5):
        for form in ("312", "231"):
            ints(f"count --engine oracle --pattern 321 --form {form} --n {n}", [fuss_catalan(n)])

    for hi in (2, 20):
        for p in ("132", "213"):
            ints(f"count --pattern {p} --n 1..{hi}", b[1 : hi + 1])
        for p, form in (("132", "312"), ("213", "231")):
            ints(f"count --pattern {p} --form {form} --n 1..{hi}", a[1 : hi + 1])
    for hi in (2, 10):
        ints(f"count --pattern 321 --n 1..{hi}", ladder321[:hi])
        ints(f"hpoly --n {hi}", hpolys[hi])
    for hi in (2, 30):
        for p in ("231", "312"):
            ints(f"count --pattern {p} --n 1..{hi}", [3 ** (n - 1) for n in range(1, hi + 1)])
        for form in ("312", "231"):
            ints(
                f"count --pattern 321 --form {form} --n 1..{hi}",
                [fuss_catalan(n) for n in range(1, hi + 1)],
            )
    for o in (2, order):
        out[f"series --which A --order {o}"] = {"kind": "series", "values": a[: o + 1]}
        out[f"series --which B --order {o}"] = {"kind": "series", "values": b[: o + 1]}
    for m in (2, 4):
        out[f"verify --max-n {m}"] = {"kind": "text", "lines": verify_lines(m)}
    return out


def main() -> int:
    out = answers()
    missing = sorted(
        q.key()
        for w in workloads.WORKLOADS
        for seed in range(64)
        for tiny in (False, True)
        for q in workloads.build(w, seed, tiny)
        if q.key() not in out
    )
    require(not missing, f"queries without an answer: {missing}")
    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump({"answers": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(out)} answers to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
