"""End-to-end integration and calibration-band tests.

The calibration tests assert the *shape* of the paper's findings on a
scaled-down pipeline with a fixed seed — loose bands, qualitative
directions. The full-size bands are exercised by the benchmark harness
(`benchmarks/`), not here, to keep the suite fast.
"""

import numpy as np

import repro
from repro import analysis


class TestPipelineShape:
    def test_dataset_sizes(self, emmy_small, meggie_small):
        assert emmy_small.num_jobs > 200
        assert meggie_small.num_jobs > 100
        assert len(emmy_small.traces) > 10

    def test_rq1_rq2_stranded_power(self, emmy_small):
        """High system utilization, yet a large stranded-power gap."""
        util = analysis.system_utilization(emmy_small).mean
        power = analysis.power_utilization(emmy_small).mean
        assert util > 0.6
        assert power < util
        assert (util - power) > 0.10

    def test_rq3_power_below_tdp(self, emmy_small, meggie_small):
        for ds in (emmy_small, meggie_small):
            dist = analysis.per_node_power_distribution(ds)
            assert 0.45 < dist.mean_tdp_fraction < 0.85
            assert 0.1 < dist.std_over_mean < 0.45

    def test_rq4_cross_system_levels(self, emmy_small, meggie_small):
        comp = analysis.app_power_comparison(
            {"emmy": emmy_small, "meggie": meggie_small}
        )
        assert np.all(comp.mean_watts[:, 0] > comp.mean_watts[:, 1])

    def test_table2_positive_correlations(self, emmy_small):
        corr = analysis.feature_power_correlations(emmy_small)
        assert corr["job_length"].statistic > 0.05
        assert corr["job_size"].statistic > -0.05

    def test_rq5_temporal_low_spatial_high(self, emmy_small):
        t = analysis.temporal_summary(emmy_small)
        s = analysis.spatial_summary(emmy_small)
        # Temporal variance limited...
        assert t.mean_temporal_cov < 0.25
        assert t.frac_jobs_never_above > 0.3
        # ...but spatial variance substantial.
        assert s.mean_spread_fraction > 0.05

    def test_rq6_concentration(self, emmy_small):
        c = analysis.concentration_analysis(emmy_small)
        assert c.node_hours_share > 0.6
        assert c.energy_share > 0.6
        assert c.top_set_overlap > 0.5

    def test_rq7_rq8_variability_collapse(self, emmy_small):
        user_cov = analysis.user_power_variability(emmy_small).mean_cov
        cluster_cov = analysis.cluster_variability(emmy_small, "nodes").mean_cov
        assert cluster_cov < 0.6 * user_cov

    def test_rq9_prediction_quality(self, emmy_small):
        results = analysis.run_prediction(emmy_small.jobs, n_repeats=2, seed=1)
        bdt = results["BDT"].summary
        assert bdt.frac_below_10pct > 0.5
        assert (
            bdt.frac_below_10pct >= results["FLDA"].summary.frac_below_10pct
        )

    def test_full_determinism_across_layers(self):
        a = repro.generate_dataset(
            "meggie", seed=77, num_nodes=24, num_users=8, horizon_s=2 * 86400,
            max_traces=3,
        )
        b = repro.generate_dataset(
            "meggie", seed=77, num_nodes=24, num_users=8, horizon_s=2 * 86400,
            max_traces=3,
        )
        np.testing.assert_array_equal(a.jobs["energy_j"], b.jobs["energy_j"])
        np.testing.assert_array_equal(a.total_power_watts(), b.total_power_watts())
        for k in a.traces:
            np.testing.assert_array_equal(a.traces[k].matrix, b.traces[k].matrix)


class TestCrossSystemContrasts:
    """Per-system parameterizations must preserve the paper's contrasts."""

    def test_emmy_draws_higher_fraction(self, emmy_small, meggie_small):
        emmy = analysis.per_node_power_distribution(emmy_small)
        meggie = analysis.per_node_power_distribution(meggie_small)
        assert emmy.mean_tdp_fraction > meggie.mean_tdp_fraction

    def test_emmy_wider_spread(self, emmy_small, meggie_small):
        emmy = analysis.per_node_power_distribution(emmy_small)
        meggie = analysis.per_node_power_distribution(meggie_small)
        assert emmy.std_over_mean > meggie.std_over_mean * 0.8

    def test_meggie_size_coupling_stronger(self, emmy_small, meggie_small):
        emmy_corr = analysis.feature_power_correlations(emmy_small)
        meggie_corr = analysis.feature_power_correlations(meggie_small)
        assert (
            meggie_corr["job_size"].statistic
            > emmy_corr["job_size"].statistic - 0.15
        )
