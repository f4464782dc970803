"""Tests for the RAPL measurement model."""

import numpy as np
import pytest

from repro.cluster import EMMY, RaplModel
from repro.cluster.rapl import average_to_minutes
from repro.errors import TelemetryError


class TestAveraging:
    def test_exact_minutes(self):
        signal = np.ones((2, 120))  # 2 nodes, 120 one-second steps
        out = average_to_minutes(signal, seconds_per_step=1.0)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, 1.0)

    def test_partial_trailing_minute(self):
        signal = np.concatenate([np.full(60, 2.0), np.full(30, 4.0)])
        out = average_to_minutes(signal, seconds_per_step=1.0)
        assert out.shape == (2,)
        assert out[0] == pytest.approx(2.0)
        assert out[1] == pytest.approx(4.0)

    def test_averaging_not_sampling(self):
        """A 1-minute sample is the mean of the minute, not a point value."""
        signal = np.zeros(60)
        signal[::2] = 100.0  # alternating 100/0 each second
        out = average_to_minutes(signal, seconds_per_step=1.0)
        assert out[0] == pytest.approx(50.0)

    def test_minute_resolution_input(self):
        signal = np.asarray([[10.0, 20.0, 30.0]])
        out = average_to_minutes(signal, seconds_per_step=60.0)
        np.testing.assert_allclose(out, signal)

    def test_rejects_3d(self):
        with pytest.raises(TelemetryError):
            average_to_minutes(np.zeros((2, 2, 2)))

    def test_rejects_supra_minute_steps(self):
        with pytest.raises(TelemetryError):
            average_to_minutes(np.zeros(10), seconds_per_step=120.0)


class TestRaplModel:
    def test_domain_split(self, rng):
        model = RaplModel(EMMY, noise_sigma=0.0)
        true_power = np.full((3, 5), 100.0)
        pkg, dram = model.measure(true_power, rng)
        np.testing.assert_allclose(pkg + dram, 100.0)
        np.testing.assert_allclose(dram, 100.0 * EMMY.dram_power_fraction)

    def test_noise_is_small_and_unbiased(self, rng):
        model = RaplModel(EMMY, noise_sigma=0.01)
        true_power = np.full((1, 10000), 100.0)
        measured = model.measure_total(true_power, rng)
        assert abs(measured.mean() - 100.0) < 0.5
        assert 0.5 < measured.std() < 1.5

    def test_never_negative(self, rng):
        model = RaplModel(EMMY, noise_sigma=0.5)
        measured = model.measure_total(np.full((2, 50), 0.5), rng)
        assert np.all(measured >= 0)

    def test_invalid_noise(self):
        with pytest.raises(TelemetryError):
            RaplModel(EMMY, noise_sigma=-0.1)
