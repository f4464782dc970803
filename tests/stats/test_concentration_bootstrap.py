"""Tests for concentration curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import lorenz_curve, overlap_fraction, top_share
from repro.stats.concentration import gini, top_k_ids


class TestLorenz:
    def test_equal_distribution(self):
        frac, share = lorenz_curve([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(share, frac)

    def test_extreme_concentration(self):
        frac, share = lorenz_curve([100.0, 0.0, 0.0, 0.0])
        assert share[0] == 1.0

    def test_monotone(self, rng):
        _, share = lorenz_curve(rng.random(50))
        assert np.all(np.diff(share) >= -1e-12)
        assert share[-1] == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lorenz_curve([-1.0, 2.0])

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            lorenz_curve([0.0, 0.0])


class TestTopShare:
    def test_pareto_like(self):
        totals = [80.0, 10.0, 5.0, 3.0, 2.0]
        assert top_share(totals, 0.2) == pytest.approx(0.80)

    def test_full_fraction(self):
        assert top_share([1.0, 2.0], 1.0) == pytest.approx(1.0)

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            top_share([1.0], 0.0)


class TestGini:
    def test_equal_is_zero(self):
        assert gini([5.0] * 10) == pytest.approx(0.0)

    def test_concentrated_near_one(self):
        values = [0.0] * 99 + [100.0]
        assert gini(values) > 0.95

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_bounded(self, xs):
        assert 0.0 <= gini(xs) < 1.0


class TestOverlap:
    def test_identical_metrics(self):
        ids = np.asarray(["a", "b", "c", "d", "e"])
        totals = np.asarray([5.0, 4.0, 3.0, 2.0, 1.0])
        assert overlap_fraction(ids, totals, totals, 0.4) == 1.0

    def test_disjoint_metrics(self):
        ids = np.asarray(["a", "b", "c", "d"])
        a = np.asarray([4.0, 3.0, 2.0, 1.0])
        b = np.asarray([1.0, 2.0, 3.0, 4.0])
        assert overlap_fraction(ids, a, b, 0.5) == 0.0

    def test_top_k_ids(self):
        ids = np.asarray(["a", "b", "c"])
        assert top_k_ids(ids, [1.0, 9.0, 5.0], 0.3).tolist() == ["b"]
        assert top_k_ids(ids, [1.0, 9.0, 5.0], 0.6).tolist() == ["b", "c"]

