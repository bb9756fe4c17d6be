"""Tests for concentration bounds and growth-rate fitting."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    chernoff_binomial_lower_tail,
    chernoff_binomial_upper_tail,
    chernoff_geometric_sum_tail,
    union_bound,
)
from repro.analysis.fit import linear_fit, loglog_slope
from repro.util.rng import RandomSource


class TestGeometricSumBound:
    """Theorem 34 must upper bound the exact tail."""

    def test_decreases_in_delta(self):
        assert chernoff_geometric_sum_tail(50, 2.0) < chernoff_geometric_sum_tail(
            50, 0.5
        )

    def test_decreases_in_n(self):
        assert chernoff_geometric_sum_tail(200, 1.0) < chernoff_geometric_sum_tail(
            20, 1.0
        )

    @given(
        n=st.integers(min_value=5, max_value=60),
        p=st.floats(min_value=0.2, max_value=0.9),
        delta=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_bounds_empirical_tail(self, n, p, delta):
        """Monte-Carlo check: empirical tail <= bound (+ noise margin)."""
        rng = RandomSource(int(n * 1000 + delta * 100))
        trials = 400
        threshold = (1 + delta) * n / p
        exceed = 0
        for _ in range(trials):
            total = sum(rng.geometric(p) for _ in range(n))
            exceed += total >= threshold
        bound = chernoff_geometric_sum_tail(n, delta)
        assert exceed / trials <= bound + 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_geometric_sum_tail(0, 1.0)
        with pytest.raises(ValueError):
            chernoff_geometric_sum_tail(10, 0.0)


class TestBinomialBounds:
    def test_upper_tail_bound_holds_empirically(self):
        rng = RandomSource(3)
        n, p, delta = 100, 0.3, 0.5
        trials = 2000
        exceed = sum(
            sum(rng.bernoulli(p) for _ in range(n)) >= (1 + delta) * n * p
            for _ in range(trials)
        )
        assert exceed / trials <= chernoff_binomial_upper_tail(n, p, delta) + 0.02

    def test_lower_tail_bound_holds_empirically(self):
        rng = RandomSource(4)
        n, p, delta = 100, 0.5, 0.4
        trials = 2000
        below = sum(
            sum(rng.bernoulli(p) for _ in range(n)) <= (1 - delta) * n * p
            for _ in range(trials)
        )
        assert below / trials <= chernoff_binomial_lower_tail(n, p, delta) + 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            chernoff_binomial_upper_tail(10, 0.5, -1.0)
        with pytest.raises(ValueError):
            chernoff_binomial_lower_tail(10, 0.5, 1.5)


class TestUnionBound:
    def test_sums(self):
        assert union_bound(0.1, 0.2) == pytest.approx(0.3)

    def test_caps_at_one(self):
        assert union_bound(0.8, 0.7) == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            union_bound(-0.1)


class TestFitting:
    def test_linear_fit_exact(self):
        slope, intercept = linear_fit([0, 1, 2], [1, 3, 5])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)

    def test_linear_fit_validation(self):
        with pytest.raises(ValueError):
            linear_fit([1], [2])
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_loglog_slope_quadratic(self):
        xs = [2, 4, 8, 16]
        ys = [x**2 for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(2.0)

    def test_loglog_slope_flat(self):
        assert loglog_slope([2, 4, 8], [5, 5, 5]) == pytest.approx(0.0)

    def test_loglog_requires_positive(self):
        with pytest.raises(ValueError):
            loglog_slope([0, 1], [1, 2])

    def test_loglog_slope_linear(self):
        xs = [10, 20, 40]
        ys = [3 * x for x in xs]
        assert loglog_slope(xs, ys) == pytest.approx(1.0)
