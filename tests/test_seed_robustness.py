"""Cross-seed robustness of the headline calibration bands.

EXPERIMENTS.md asserts the benchmark bands are loose enough to hold
across seeds; this test checks the load-bearing ones on three seeds of a
quarter-scale Emmy. Kept at moderate scale so the whole sweep stays
under ~15 s.
"""

import numpy as np
import pytest

import repro

SEEDS = (11, 222, 3333)
SCALE = dict(num_nodes=140, num_users=70, horizon_s=30 * 86400, max_traces=300)


@pytest.fixture(scope="module")
def sweep():
    return [repro.generate_dataset("emmy", seed=s, **SCALE) for s in SEEDS]


def test_power_level_band(sweep):
    for ds in sweep:
        dist = repro.per_node_power_distribution(ds)
        assert 0.60 < dist.mean_tdp_fraction < 0.78
        assert 0.18 < dist.std_over_mean < 0.40


def test_stranded_power_band(sweep):
    for ds in sweep:
        power = repro.power_utilization(ds)
        util = repro.system_utilization(ds)
        assert util.mean > 0.75
        assert 0.20 < power.stranded_fraction < 0.45


def test_correlation_signs(sweep):
    for ds in sweep:
        corr = repro.feature_power_correlations(ds)
        # Quarter-scale traces carry few users, so rank correlations
        # are noisy; only signs and rough magnitude are stable.
        assert corr["job_length"].statistic > 0.10
        assert corr["job_size"].statistic > -0.05


def test_temporal_spatial_bands(sweep):
    for ds in sweep:
        t = repro.temporal_summary(ds)
        s = repro.spatial_summary(ds)
        assert t.mean_temporal_cov < 0.20
        assert t.mean_peak_overshoot < 0.25
        assert 0.07 < s.mean_spread_fraction < 0.25


def test_concentration_band(sweep):
    for ds in sweep:
        c = repro.concentration_analysis(ds)
        assert c.node_hours_share > 0.70
        assert c.top_set_overlap > 0.70


def test_prediction_band(sweep):
    for ds in sweep:
        results = repro.run_prediction(ds.jobs, n_repeats=2, seed=0)
        # Class density grows with trace length; at quarter scale the
        # BDT sits lower than the full-scale ~0.93 (see EXPERIMENTS.md).
        assert results["BDT"].summary.frac_below_10pct > 0.70
        assert (
            results["BDT"].summary.frac_below_10pct
            > results["FLDA"].summary.frac_below_10pct + 0.05
        )


def test_seeds_differ(sweep):
    """Sanity: the three sweeps are genuinely different datasets."""
    counts = {ds.num_jobs for ds in sweep}
    assert len(counts) == 3
    means = [float(ds.jobs["pernode_power_w"].mean()) for ds in sweep]
    assert len(set(np.round(means, 6))) == 3
