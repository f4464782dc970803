"""Tests for the temporal phase and spatial imbalance models."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workload.phases import PROFILE_KINDS, TemporalProfile, _ar1, make_profile
from repro.workload.spatial import SpatialModel, make_spatial_model


class TestAR1:
    """The AR(1) wander against ``scipy.signal.lfilter``, its old kernel."""

    @staticmethod
    def _lfilter_reference(n, sigma, seed, rho):
        from scipy.signal import lfilter

        rng = np.random.default_rng(seed)
        innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho * rho), size=n)
        innovations[0] = rng.normal(0.0, sigma)
        return np.clip(1.0 + lfilter([1.0], [1.0, -rho], innovations), 0.3, 1.7)

    @pytest.mark.parametrize("n", [1, 2, 3, 1440, 5000])
    @pytest.mark.parametrize("seed", [0, 7, 2020])
    @pytest.mark.parametrize("sigma", [0.012, 0.035, 0.4])
    @pytest.mark.parametrize("rho", [0.96, 0.5])
    def test_bit_identical_to_lfilter(self, n, seed, sigma, rho):
        got = _ar1(n, sigma, np.random.default_rng(seed), rho=rho)
        np.testing.assert_array_equal(got, self._lfilter_reference(n, sigma, seed, rho))

    def test_zero_sigma_is_flat_and_draws_nothing(self):
        rng = np.random.default_rng(5)
        np.testing.assert_array_equal(_ar1(9, 0.0, rng), np.ones(9))
        assert rng.random() == np.random.default_rng(5).random()


class TestTemporalProfile:
    def test_mean_is_exactly_one(self, rng):
        for kind in PROFILE_KINDS:
            profile = TemporalProfile(kind=kind, wander_sigma=0.03, amp=0.3, duty=0.2)
            series = profile.generate(240, rng)
            assert series.mean() == pytest.approx(1.0)
            assert len(series) == 240

    def test_flat_has_low_variance(self, rng):
        series = TemporalProfile(kind="flat", wander_sigma=0.02).generate(500, rng)
        assert series.std() < 0.08

    def test_dip_plateau_stays_near_mean(self, rng):
        """The Fig 7b constraint: dips must not push the plateau >10% above."""
        profile = TemporalProfile(kind="dip", wander_sigma=0.0, amp=0.5, duty=0.15)
        series = profile.generate(600, rng)
        assert series.max() < 1.10

    def test_dip_raises_sigma(self, rng):
        flat = TemporalProfile(kind="flat", wander_sigma=0.02).generate(600, rng)
        dip = TemporalProfile(kind="dip", wander_sigma=0.02, amp=0.5, duty=0.15).generate(600, rng)
        assert dip.std() > flat.std()

    def test_burst_overshoots(self, rng):
        profile = TemporalProfile(kind="burst", wander_sigma=0.0, amp=0.3, duty=0.2)
        series = profile.generate(600, rng)
        assert series.max() / series.mean() > 1.15

    def test_short_jobs_fall_back_to_flat(self, rng):
        profile = TemporalProfile(kind="dip", amp=0.5, duty=0.2)
        series = profile.generate(2, rng)
        assert len(series) == 2

    def test_invalid_kind(self):
        with pytest.raises(WorkloadError):
            TemporalProfile(kind="sawtooth")

    def test_invalid_length(self, rng):
        with pytest.raises(WorkloadError):
            TemporalProfile(kind="flat").generate(0, rng)

    def test_validation_bounds(self):
        with pytest.raises(WorkloadError):
            TemporalProfile(kind="flat", wander_sigma=0.9)
        with pytest.raises(WorkloadError):
            TemporalProfile(kind="dip", amp=0.95)
        with pytest.raises(WorkloadError):
            TemporalProfile(kind="dip", duty=1.0)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_make_profile_valid_for_any_burstiness(self, burstiness):
        rng = np.random.default_rng(0)
        profile = make_profile(burstiness, rng)
        assert profile.kind in PROFILE_KINDS

    def test_population_mostly_not_bursty(self, rng):
        """The paper's core temporal finding must be baked into the mix."""
        kinds = [make_profile(0.3, rng).kind for _ in range(2000)]
        burst_share = kinds.count("burst") / len(kinds)
        assert burst_share < 0.20


class TestSpatialModel:
    def test_offsets_centered(self, rng):
        offsets = SpatialModel(static_sigma=0.05).node_offsets(20000, rng)
        assert abs(offsets.mean() - 1.0) < 0.01

    def test_zero_sigma_offsets(self, rng):
        np.testing.assert_array_equal(
            SpatialModel(static_sigma=0.0).node_offsets(5, rng), np.ones(5)
        )

    def test_dynamic_noise_shape(self, rng):
        noise = SpatialModel(static_sigma=0.05).dynamic_noise(4, 100, rng)
        assert noise.shape == (4, 100)
        assert np.all(noise > 0)

    def test_events_create_dips(self, rng):
        quiet = SpatialModel(static_sigma=0.0, dynamic_sigma=0.0, event_prob=0.0)
        noisy = SpatialModel(static_sigma=0.0, dynamic_sigma=0.0, event_prob=0.3, event_amp=0.5)
        q = quiet.dynamic_noise(4, 500, rng)
        n = noisy.dynamic_noise(4, 500, rng)
        np.testing.assert_array_equal(q, 1.0)
        assert n.min() < 0.95  # events push node power down

    def test_invalid_params(self):
        with pytest.raises(WorkloadError):
            SpatialModel(static_sigma=0.9)
        with pytest.raises(WorkloadError):
            SpatialModel(static_sigma=0.05, event_prob=0.9)

    def test_make_spatial_model_scales_with_imbalance(self, rng):
        low = [make_spatial_model(0.0, rng).static_sigma for _ in range(200)]
        high = [make_spatial_model(1.0, rng).static_sigma for _ in range(200)]
        assert np.mean(high) > np.mean(low)

    def test_make_spatial_model_bad_imbalance(self, rng):
        with pytest.raises(WorkloadError):
            make_spatial_model(1.5, rng)
