"""Tests for every analysis module against the shared small datasets."""

import numpy as np
import pytest

from repro import analysis
from repro.analysis.report import comparison_text, format_table
from repro.errors import AnalysisError
from repro.frames import Table


class TestSystemLevel:
    def test_utilization_bounded(self, emmy_small):
        util = analysis.system_utilization(emmy_small)
        assert 0.0 <= util.minimum <= util.mean <= util.peak <= 1.0
        assert util.kind == "system"

    def test_power_below_system_utilization_scaled(self, emmy_small):
        """Power utilization < system utilization: the stranded-power gap."""
        util = analysis.system_utilization(emmy_small)
        power = analysis.power_utilization(emmy_small)
        assert power.mean < util.mean
        assert power.stranded_fraction > 0.2  # paper: >30% stranded

    def test_power_without_idle_lower(self, emmy_small):
        with_idle = analysis.power_utilization(emmy_small, include_idle=True)
        without = analysis.power_utilization(emmy_small, include_idle=False)
        assert without.mean <= with_idle.mean

    def test_daily_means_shape(self, emmy_small):
        util = analysis.system_utilization(emmy_small)
        days = util.daily_means()
        assert len(days) == emmy_small.horizon_s // 86400
        assert np.all((days >= 0) & (days <= 1))


class TestJobLevel:
    def test_distribution_stats(self, emmy_small):
        dist = analysis.per_node_power_distribution(emmy_small)
        assert 0.4 < dist.mean_tdp_fraction < 0.9
        assert dist.pdf.integral() == pytest.approx(1.0)
        assert dist.n_jobs == emmy_small.num_jobs

    def test_jobs_below_tdp(self, emmy_small):
        """RQ3: jobs draw less than the node TDP."""
        dist = analysis.per_node_power_distribution(emmy_small)
        assert dist.mean_watts < emmy_small.spec.node_tdp_watts

    def test_app_comparison(self, emmy_small, meggie_small):
        comp = analysis.app_power_comparison(
            {"emmy": emmy_small, "meggie": meggie_small}
        )
        assert comp.mean_watts.shape == (5, 2)
        # RQ4: every key app draws less on Meggie.
        assert np.all(comp.mean_watts[:, 0] > comp.mean_watts[:, 1])
        table = comp.as_table()
        assert "emmy_watts" in table

    def test_rankings(self, emmy_small, meggie_small):
        comp = analysis.app_power_comparison(
            {"emmy": emmy_small, "meggie": meggie_small}
        )
        ranking = comp.ranking("emmy")
        assert sorted(ranking) == sorted(comp.apps)
        assert 0 < comp.max_relative_drop() < 1

    def test_correlations(self, emmy_small):
        corr = analysis.feature_power_correlations(emmy_small)
        assert set(corr) == {"job_length", "job_size"}
        for r in corr.values():
            assert -1 <= r.statistic <= 1
            assert r.pvalue < 0.05  # strongly significant on real sizes

    def test_split_analysis(self, emmy_small):
        for dim in ("length", "size"):
            split = analysis.split_analysis(emmy_small, dim)
            # Fig 5: longer/larger jobs draw more per-node power.
            assert split.high.mean_tdp_fraction > split.low.mean_tdp_fraction
            assert split.low.n_jobs + split.high.n_jobs == emmy_small.num_jobs

    def test_split_bad_dimension(self, emmy_small):
        with pytest.raises(AnalysisError):
            analysis.split_analysis(emmy_small, "width")


class TestTemporalSpatial:
    def test_temporal_summary(self, emmy_small):
        t = analysis.temporal_summary(emmy_small)
        assert t.n_jobs == len(emmy_small.traces)
        assert 0 < t.mean_temporal_cov < 0.4  # "limited temporal variance"
        assert 0 < t.mean_peak_overshoot < 0.5
        assert 0 <= t.mean_frac_time_above_10pct <= 1
        assert 0 <= t.frac_jobs_never_above <= 1
        assert t.overshoot_at_percentile(0.8) >= t.overshoot_at_percentile(0.2)

    def test_spatial_summary(self, emmy_small):
        s = analysis.spatial_summary(emmy_small)
        assert s.mean_spread_watts > 0
        assert 0 < s.mean_spread_fraction < 1
        assert 0 <= s.frac_jobs_energy_imbalance_over_15pct <= 1
        assert s.energy_imbalance_pdf.integral() == pytest.approx(1.0)

    def test_requires_traces(self, emmy_small):
        import dataclasses

        bare = dataclasses.replace(emmy_small, traces={})
        with pytest.raises(AnalysisError, match="instrumented"):
            analysis.temporal_summary(bare)
        with pytest.raises(AnalysisError):
            analysis.spatial_summary(bare)


class TestUserLevel:
    def test_concentration(self, emmy_small):
        c = analysis.concentration_analysis(emmy_small)
        assert 0.5 < c.node_hours_share <= 1.0  # heavy concentration
        assert 0.5 < c.energy_share <= 1.0
        assert 0 <= c.top_set_overlap <= 1.0
        frac, share = c.node_hours_curve
        assert share[-1] == pytest.approx(1.0)

    def test_user_variability(self, emmy_small):
        v = analysis.user_power_variability(emmy_small)
        assert v.mean_cov > 0.05  # users are NOT monotonous (RQ7)
        assert v.n_users > 2

    def test_cluster_variability_collapses(self, emmy_small):
        """RQ8: clustering by (user, nodes) slashes the variability."""
        user_cov = analysis.user_power_variability(emmy_small).mean_cov
        cluster = analysis.cluster_variability(emmy_small, "nodes")
        assert cluster.mean_cov < user_cov
        assert cluster.frac_below_10pct > 0.4
        assert cluster.bucket_fractions.sum() == pytest.approx(1.0)

    def test_cluster_by_walltime(self, emmy_small):
        cluster = analysis.cluster_variability(emmy_small, "walltime")
        assert cluster.cluster_by == "walltime"
        assert cluster.frac_below_10pct > 0.4

    def test_cluster_bad_key(self, emmy_small):
        with pytest.raises(AnalysisError):
            analysis.cluster_variability(emmy_small, "app")

    def test_user_totals_sums(self, emmy_small):
        totals = analysis.user_totals(emmy_small)
        assert totals["node_hours"].sum() == pytest.approx(
            emmy_small.jobs["node_hours"].sum()
        )


class TestPrediction:
    def test_run_prediction(self, emmy_small):
        results = analysis.run_prediction(emmy_small.jobs, n_repeats=2, seed=0)
        assert set(results) == {"BDT", "KNN", "FLDA"}
        for r in results.values():
            assert 0 <= r.summary.frac_below_10pct <= 1
        # BDT beats FLDA by a wide margin (Fig 14's ordering).
        assert (
            results["BDT"].summary.frac_below_10pct
            > results["FLDA"].summary.frac_below_10pct
        )

    def test_rejects_tiny_dataset(self, emmy_small):
        with pytest.raises(AnalysisError):
            analysis.run_prediction(emmy_small.jobs.head(10))


class TestReport:
    def test_format_table(self):
        t = Table({"aa": [1, 2], "b": ["x", "y"]})
        text = format_table(t)
        assert "aa" in text and "x" in text and "--" in text

    def test_format_empty(self):
        assert format_table(Table({})) == "(empty table)"

    def test_truncation(self):
        t = Table({"a": list(range(100))})
        text = format_table(t, max_rows=5)
        assert "more rows" in text

    def test_comparison_text(self):
        text = comparison_text("Fig X", [("metric", 0.5, 0.48)], note="close")
        assert "Fig X" in text and "0.48" in text and "close" in text
