"""Truncated formal power series with exact integer coefficients.

Every series carries its truncation order explicitly (the highest retained
exponent); combining series of different orders truncates to the shorter one,
so precision can shrink but never silently pretend to exceed what was
computed.  All arithmetic is exact big-integer work; nothing here touches
floating point.
"""

from __future__ import annotations

from typing import Sequence

from threecycle.errors import ResourceLimitError


class IntegerSeries:
    """Coefficients c[0..N] of a power series truncated at order N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int]):
        if len(coeffs) == 0:
            raise ValueError("a series needs at least the constant coefficient")
        if not all(isinstance(c, int) for c in coeffs):
            raise ValueError("series coefficients must be ints")
        self.coeffs: tuple[int, ...] = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntegerSeries) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntegerSeries({list(self.coeffs)})"

    def __add__(self, other: "IntegerSeries") -> "IntegerSeries":
        n = min(self.order, other.order)
        return IntegerSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "IntegerSeries") -> "IntegerSeries":
        n = min(self.order, other.order)
        return IntegerSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

    def scale(self, k: int) -> "IntegerSeries":
        return IntegerSeries([k * c for c in self.coeffs])

    def __mul__(self, other: "IntegerSeries") -> "IntegerSeries":
        n = min(self.order, other.order)
        out = [0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return IntegerSeries(out)

    def compose(self, inner: "IntegerSeries") -> "IntegerSeries":
        """self(inner); requires ``inner`` to have zero constant term."""
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs a zero constant term inside")
        n = min(self.order, inner.order)
        # Horner from the top coefficient down; each product truncates at n.
        result = constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            result = result * inner + constant(self.coeffs[k], n)
        return result


#: The largest order the series routes compute.  At this order
#: ``series_B`` takes about 0.3 s on one core, and so does the range query
#: over every n up to it, ``count --pattern 132 --n 1..ORDER_LIMIT``, which
#: reads every n off that one series.
ORDER_LIMIT = 500


def _check_order(order: int) -> None:
    if order > ORDER_LIMIT:
        raise ResourceLimitError(
            f"order {order} exceeds the series bound order <= {ORDER_LIMIT}"
        )


def constant(value: int, order: int) -> IntegerSeries:
    return IntegerSeries([value] + [0] * order)


def one(order: int) -> IntegerSeries:
    return constant(1, order)


def catalan_numbers(n: int) -> list[int]:
    """C[0..n] by the recurrence C[k+1] = C[k] * 2(2k+1) / (k+2), each
    division exact; refused above ``ORDER_LIMIT``.

    >>> catalan_numbers(5)
    [1, 1, 2, 5, 14, 42]
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    _check_order(n)
    c = [1]
    for k in range(n):
        c.append(c[k] * 2 * (2 * k + 1) // (k + 2))
    return c


def motzkin_numbers(n: int) -> list[int]:
    """M[0..n] by the recurrence (k+3) M[k+1] = (2k+3) M[k] + 3k M[k-1] from
    M[0] = M[1] = 1, each division exact; refused above ``ORDER_LIMIT``.

    >>> motzkin_numbers(5)
    [1, 1, 2, 4, 9, 21]
    """
    if n < 0:
        raise ValueError("order must be nonnegative")
    _check_order(n)
    m = [1, 1]
    for k in range(1, n):
        m.append(((2 * k + 3) * m[k] + 3 * k * m[k - 1]) // (k + 3))
    return m[: n + 1]


def catalan_series(order: int) -> IntegerSeries:
    return IntegerSeries(catalan_numbers(order))


def motzkin_series(order: int) -> IntegerSeries:
    return IntegerSeries(motzkin_numbers(order))


def series_all312_avoiders(order: int) -> IntegerSeries:
    """Generating function for the 132-avoiding star permutations whose cycles
    all realize 312: A = u * m(u), with u = c - 1 and c, m the Catalan and
    Motzkin series.  Coefficient n counts the size-3n members; the constant
    term is 0.  Refused above ``ORDER_LIMIT``.

    The Motzkin series satisfies m = 1 + x m + x^2 m^2.  At x = u, times u,
    that is A = u (1 + A + A^2).  Coefficient k of w = 1 + A + A^2 needs those
    of A only up to k, and u[0] = 0, so the two are built in turn, w one
    coefficient behind A, with O(order^2) products and no composition:

        a[k] = sum(u[i] w[k-i], i = 1..k),
        w[k] = a[k] + sum(a[i] a[k-i], i = 1..k-1).
    """
    _check_order(order)
    u = catalan_numbers(order)
    u[0] = 0
    a = [0] * (order + 1)
    w = [1] + [0] * order
    for k in range(1, order + 1):
        acc = 0
        for i in range(1, k + 1):
            acc += u[i] * w[k - i]
        a[k] = acc
        for i in range(1, k):  # w[k] goes on from a[k]
            acc += a[i] * a[k - i]
        w[k] = acc
    return IntegerSeries(a)


def series_132_avoiders(order: int) -> IntegerSeries:
    """Generating function for all 132-avoiding star permutations:
    B = 2A / (1 - A), A = :func:`series_all312_avoiders`, built as A is, one
    coefficient at a time from B = 2A + A B (a[0] = 0), refused above
    ``ORDER_LIMIT``: b[k] = 2 a[k] + sum(a[i] b[k-i], i = 1..k-1)."""
    a = series_all312_avoiders(order).coeffs
    b = [0] * (order + 1)
    for k in range(1, order + 1):
        acc = 2 * a[k]
        for i in range(1, k):
            acc += a[i] * b[k - i]
        b[k] = acc
    return IntegerSeries(b)


# short aliases matching the A/B naming used throughout the tests and CLI
series_A = series_all312_avoiders
series_B = series_132_avoiders
