"""Tests for ECDF, survival curves, and percentile helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.stats import Ecdf, SurvivalCurve, median, percentile


class TestPercentiles:
    def test_median_odd(self):
        assert median([3, 1, 2]) == 2

    def test_median_even_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_percentile_bounds(self):
        values = list(range(11))
        assert percentile(values, 0) == 0
        assert percentile(values, 100) == 10

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_percentile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                              min_value=-1e6, max_value=1e6), min_size=1, max_size=50))
    def test_median_between_min_and_max(self, values):
        m = median(values)
        assert min(values) <= m <= max(values)


class TestEcdf:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Ecdf([])

    def test_evaluate_steps(self):
        ecdf = Ecdf([1, 2, 2, 3])
        assert ecdf.evaluate(0) == 0.0
        assert ecdf.evaluate(1) == 0.25
        assert ecdf.evaluate(2) == 0.75
        assert ecdf.evaluate(3) == 1.0

    def test_proportion_above(self):
        ecdf = Ecdf([10, 20, 30, 40])
        assert ecdf.proportion_above(20) == pytest.approx(0.5)

    def test_quantile(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.quantile(0.5) == 2
        assert ecdf.quantile(1.0) == 4

    def test_quantile_non_integer_product(self):
        # Regression: ceil(q*n) must round UP for fractional products.
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.quantile(0.3) == 2  # ceil(1.2) = 2 -> second smallest
        assert ecdf.quantile(0.76) == 4  # ceil(3.04) = 4

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40),
           st.floats(min_value=0.01, max_value=1.0))
    def test_quantile_is_smallest_sample_reaching_q(self, samples, q):
        ecdf = Ecdf(samples)
        value = ecdf.quantile(q)
        assert ecdf.evaluate(value) >= q - 1e-12
        smaller = [s for s in samples if s < value]
        if smaller:
            assert ecdf.evaluate(max(smaller)) < q

    def test_quantile_rejects_zero(self):
        with pytest.raises(ValueError):
            Ecdf([1]).quantile(0.0)

    def test_curve_monotone(self):
        ecdf = Ecdf([5, 1, 9, 4, 4, 2])
        curve = ecdf.curve(points=50)
        ys = [y for _, y in curve]
        assert ys == sorted(ys)
        assert curve[-1][1] == 1.0

    def test_curve_single_value(self):
        assert Ecdf([7, 7]).curve() == [(7, 1.0)]

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=80))
    def test_evaluate_matches_count(self, samples):
        ecdf = Ecdf(samples)
        x = samples[0]
        expected = sum(1 for s in samples if s <= x) / len(samples)
        assert ecdf.evaluate(x) == pytest.approx(expected)


class TestSurvivalCurve:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SurvivalCurve([])

    def test_survival_basic(self):
        curve = SurvivalCurve([10, 20, 30, 40])
        assert curve.survival_at(0) == 1.0
        assert curve.survival_at(10) == 0.75
        assert curve.survival_at(40) == 0.0

    def test_reduction_if_capped_equals_survival(self):
        curve = SurvivalCurve([30, 100, 200, 400])
        assert curve.reduction_if_capped(90) == curve.survival_at(90) == 0.75

    def test_steps_are_decreasing(self):
        curve = SurvivalCurve([5, 5, 1, 9, 3])
        steps = curve.steps()
        times = [p.time for p in steps]
        survs = [p.survival for p in steps]
        assert times == sorted(times)
        assert survs == sorted(survs, reverse=True)
        assert steps[-1].survival == 0.0

    def test_steps_collapse_duplicates(self):
        steps = SurvivalCurve([2, 2, 2]).steps()
        assert len(steps) == 1
        assert steps[0].survival == 0.0

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=60), st.integers(0, 500))
    def test_survival_is_fraction_strictly_greater(self, samples, t):
        curve = SurvivalCurve(samples)
        expected = sum(1 for s in samples if s > t) / len(samples)
        assert curve.survival_at(t) == pytest.approx(expected)
