"""The exact truncated series engine and the two generating functions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    catalan_direct,
    composed_series_A,
    composition_sums_132,
    motzkin_direct,
    recurrence_A,
    recurrence_B,
)
from threecycle import oracle, series
from threecycle.errors import ResourceLimitError


class TestNumberTables:
    def test_catalan_values(self):
        assert series.catalan_numbers(5) == [1, 1, 2, 5, 14, 42]
        assert series.catalan_numbers(0) == [1]

    def test_motzkin_values(self):
        assert series.motzkin_numbers(5) == [1, 1, 2, 4, 9, 21]
        assert series.motzkin_numbers(0) == [1]

    def test_against_closed_forms(self):
        cat = series.catalan_numbers(100)
        mot = series.motzkin_numbers(100)
        for n in range(101):
            assert cat[n] == catalan_direct(n)
            assert mot[n] == motzkin_direct(n)


class TestSeriesAlgebra:
    def test_orders_mix_to_minimum(self):
        a = series.IntegerSeries([1, 2, 3])
        b = series.IntegerSeries([1, 1])
        assert (a + b).order == 1
        assert (a * b).order == 1

    def test_mul_hand_convolution(self):
        # (c-1) = x + 2x^2 + 5x^3 + ...; its square starts x^2 + 4x^3
        c1 = series.catalan_series(5) - series.one(5)
        sq = c1 * c1
        assert c1.coeffs == (0, 1, 2, 5, 14, 42)
        assert sq.coeffs[:4] == (0, 0, 1, 4)

    def test_compose_identity_inner(self):
        f = series.catalan_series(6)
        x = series.IntegerSeries([0, 1, 0, 0, 0, 0, 0])
        assert f.compose(x) == f

    def test_compose_requires_zero_constant(self):
        f = series.catalan_series(4)
        with pytest.raises(ValueError):
            f.compose(series.one(4))

    def test_scale_and_neg(self):
        a = series.IntegerSeries([1, -2, 3])
        assert a.scale(-2).coeffs == (-2, 4, -6)

    def test_needs_constant_coefficient(self):
        with pytest.raises(ValueError):
            series.IntegerSeries([])

    @pytest.mark.parametrize("coeffs", [[0.5, 1.9], [1, 2.0], [1, "2"], [None]])
    def test_refuses_non_int_coefficients(self, coeffs):
        # a float or string is refused, never truncated to an int
        with pytest.raises(ValueError, match="must be ints"):
            series.IntegerSeries(coeffs)


class TestGeneratingFunctions:
    def test_series_A_small(self):
        assert series.series_A(4).coeffs == (0, 1, 3, 11, 44)

    def test_series_B_small(self):
        assert series.series_B(5).coeffs == (0, 2, 8, 36, 170, 824)
        assert series.series_B(1).coeffs == (0, 2)

    def test_matches_composed_series(self):
        for order in range(1, 61):
            assert series.series_A(order) == composed_series_A(order)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=61, max_value=120))
    def test_matches_composed_series_drawn_orders(self, order):
        assert series.series_A(order) == composed_series_A(order)

    def test_coefficients_match_composition_sums(self):
        a = series.series_A(20)
        b = series.series_B(20)
        sum_a, sum_b = composition_sums_132(20)
        for n in range(1, 21):
            assert a.coefficient(n) == sum_a[n]
            assert b.coefficient(n) == sum_b[n]

    def test_match_recurrences_to_the_bound(self):
        order = series.ORDER_LIMIT
        assert series.series_A(order).coeffs[1:] == tuple(recurrence_A(order))
        assert series.series_B(order).coeffs[1:] == tuple(recurrence_B(order))

    def test_algebraic_identity(self):
        order = 20
        a = series.series_A(order)
        b = series.series_B(order)
        assert b * (series.one(order) - a) == a.scale(2)

    @settings(max_examples=25)
    @given(st.integers(min_value=1, max_value=30))
    def test_algebraic_identity_any_order(self, order):
        a = series.series_A(order)
        b = series.series_B(order)
        assert a.order == b.order == order
        assert b * (series.one(order) - a) == a.scale(2)

    def test_match_oracle(self):
        a = series.series_A(3)
        b = series.series_B(3)
        for n in (1, 2, 3):
            assert a.coefficient(n) == oracle.oracle_count(
                oracle.query(n, "132", form="312")
            )
            assert b.coefficient(n) == oracle.oracle_count(oracle.query(n, "132"))


class TestOrderBound:
    @pytest.mark.parametrize(
        "make",
        [
            series.series_A,
            series.series_B,
            series.catalan_numbers,
            series.motzkin_numbers,
            series.catalan_series,
            series.motzkin_series,
        ],
    )
    def test_refused_above_bound(self, make):
        with pytest.raises(ResourceLimitError, match="series bound"):
            make(series.ORDER_LIMIT + 1)

    @pytest.mark.parametrize("make", [series.series_A, series.series_B])
    def test_refused_before_any_work(self, make, monkeypatch):
        def no_work(*args):
            raise AssertionError("built a coefficient table")

        monkeypatch.setattr(series, "catalan_numbers", no_work)
        with pytest.raises(ResourceLimitError):
            make(series.ORDER_LIMIT + 1)

    def test_tables_reach_the_bound(self):
        order = series.ORDER_LIMIT
        assert series.catalan_numbers(order)[-1] == catalan_direct(order)
        assert series.motzkin_numbers(order)[-1] == motzkin_direct(order)
