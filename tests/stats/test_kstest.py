"""Seed robustness of the generator, judged by a two-sample KS test."""

import pytest
from scipy import stats as sps


class TestSeedRobustness:
    """Two seeds of the same system look alike; two systems do not."""

    @pytest.fixture(scope="class")
    def triple(self):
        import repro

        kw = dict(num_nodes=40, num_users=20, horizon_s=6 * 86400, max_traces=0)
        return (
            repro.generate_dataset("emmy", seed=101, **kw),
            repro.generate_dataset("emmy", seed=202, **kw),
            repro.generate_dataset("meggie", seed=101, **kw),
        )

    def test_same_system_similar_power_distribution(self, triple):
        emmy_a, emmy_b, _ = triple
        result = sps.ks_2samp(
            emmy_a.jobs["pernode_power_w"],
            emmy_b.jobs["pernode_power_w"],
            method="asymp",
        )
        # Different seeds draw different users/classes, so the
        # distributions are similar but not identical: bound the
        # statistic rather than the p-value.
        assert result.statistic < 0.25

    def test_cross_system_clearly_different(self, triple):
        emmy_a, _, meggie = triple
        result = sps.ks_2samp(
            emmy_a.jobs["pernode_power_w"],
            meggie.jobs["pernode_power_w"],
            method="asymp",
        )
        assert result.statistic > 0.25
        assert result.pvalue < 1e-6
