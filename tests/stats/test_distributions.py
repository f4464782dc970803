"""Tests for ECDF, quantiles and histograms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import (
    ECDF,
    fraction_below,
    freedman_diaconis_bins,
    histogram_pdf,
    quantile,
)

finite_floats = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


class TestECDF:
    def test_basic_evaluation(self):
        e = ECDF([1.0, 2.0, 3.0, 4.0])
        assert e(0.5) == 0.0
        assert e(1.0) == 0.25
        assert e(2.5) == 0.5
        assert e(4.0) == 1.0
        assert e(99.0) == 1.0

    def test_vectorized(self):
        e = ECDF([1.0, 2.0])
        np.testing.assert_allclose(e([0.0, 1.0, 2.0]), [0.0, 0.5, 1.0])

    def test_quantile_inverse(self):
        e = ECDF([10.0, 20.0, 30.0, 40.0])
        assert e.quantile(0.25) == 10.0
        assert e.quantile(1.0) == 40.0
        assert e.quantile(0.0) == 10.0

    def test_quantile_out_of_range(self):
        with pytest.raises(ValueError):
            ECDF([1.0]).quantile(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ECDF([])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            ECDF([1.0, np.nan])

    def test_steps_shape(self):
        x, f = ECDF([3.0, 1.0, 2.0]).steps()
        assert x.tolist() == [1.0, 2.0, 3.0]
        assert f.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_support_and_mean(self):
        e = ECDF([5.0, 1.0, 3.0])
        assert e.support == (1.0, 5.0)
        assert e.mean() == 3.0

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_monotone_and_bounded(self, xs):
        e = ECDF(xs)
        grid = np.linspace(min(xs) - 1, max(xs) + 1, 50)
        values = e(grid)
        assert np.all(np.diff(values) >= 0)
        assert values[0] >= 0 and values[-1] == 1.0


class TestHelpers:
    def test_fraction_below(self):
        assert fraction_below([1.0, 2.0, 3.0], 2.0) == pytest.approx(1 / 3)

    def test_quantile(self):
        assert quantile([0.0, 10.0], 0.5) == 5.0


class TestHistogram:
    def test_pdf_integrates_to_one(self, rng):
        pdf = histogram_pdf(rng.normal(size=500))
        assert pdf.integral() == pytest.approx(1.0)

    def test_explicit_bins(self):
        pdf = histogram_pdf([1.0, 2.0, 3.0], bins=3)
        assert len(pdf.density) == 3
        assert len(pdf.edges) == 4

    def test_mode(self):
        pdf = histogram_pdf([1.0, 1.1, 1.2, 5.0], bins=4)
        assert pdf.mode() < 3.0

    def test_fd_bins_positive(self, rng):
        assert 1 <= freedman_diaconis_bins(rng.normal(size=100)) <= 200

    def test_fd_bins_degenerate(self):
        assert freedman_diaconis_bins([1.0, 1.0, 1.0]) == 1

    def test_empty(self):
        with pytest.raises(ValueError):
            histogram_pdf([])
