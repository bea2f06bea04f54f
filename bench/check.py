"""Answer checking for the benchmark, independent of the threecycle package.

A query's output is compared with its entry in ``expected.json``.  Enumerate
output is checked member by member with this module's own cycle walk and a
naive scan over all index triples, never with the program's code.
"""

from __future__ import annotations

import itertools


def contains(p: tuple[int, ...], pattern: str) -> bool:
    """True iff some triple of entries of ``p`` is order-isomorphic to the
    length-3 ``pattern`` (a string such as "132")."""
    want = tuple(int(ch) for ch in pattern)
    for triple in itertools.combinations(p, 3):
        ranks = tuple(sorted(triple).index(v) + 1 for v in triple)
        if ranks == want:
            return True
    return False


def three_cycles_only(p: tuple[int, ...]) -> bool:
    seen = set()
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        length, v = 0, start
        while v not in seen:
            seen.add(v)
            v = p[v - 1]
            length += 1
        if length != 3 or v != start:
            return False
    return True


def _ints(text: str) -> list[int]:
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line, got {len(lines)}")
    return [int(tok) for tok in lines[0].split()]


def _series(text: str) -> list[int]:
    values = []
    for k, line in enumerate(text.splitlines()):
        index, _, value = line.partition(": ")
        if int(index) != k:
            raise ValueError(f"line {k} is numbered {index}")
        values.append(int(value))
    return values


def _enumerate(text: str, want: dict) -> str | None:
    m = 3 * want["n"]
    seen = set()
    for line in text.splitlines():
        p = tuple(int(tok) for tok in line.split())
        if sorted(p) != list(range(1, m + 1)):
            return f"not a permutation of [{m}]: {line!r}"
        if not three_cycles_only(p):
            return f"not made of 3-cycles: {line!r}"
        if contains(p, want["pattern"]):
            return f"contains {want['pattern']}: {line!r}"
        if p in seen:
            return f"listed twice: {line!r}"
        seen.add(p)
    if len(seen) != want["count"]:
        return f"{len(seen)} members listed, expected {want['count']}"
    return None


def problem(stdout: str, want: dict) -> str | None:
    """None when ``stdout`` is the expected answer, else what is wrong."""
    kind = want["kind"]
    try:
        if kind == "ints":
            got = _ints(stdout)
        elif kind == "series":
            got = _series(stdout)
        elif kind == "enumerate":
            return _enumerate(stdout, want)
        elif kind == "text":
            got = stdout.splitlines()
            return None if got == want["lines"] else f"report differs: {got[-3:]!r}"
        else:
            raise ValueError(f"unknown answer kind {kind!r}")
    except ValueError as exc:
        return f"unreadable output: {exc}"
    if got != want["values"]:
        bad = [i for i, (g, w) in enumerate(zip(got, want["values"])) if g != w]
        return f"{len(got)} values, expected {len(want['values'])}; first mismatch at {bad[:1]}"
    return None
