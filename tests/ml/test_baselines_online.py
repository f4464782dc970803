"""Tests for the rule-based baselines and the online predictor."""

import numpy as np
import pytest

from repro.errors import ModelError, NotFittedError, ValidationError
from repro.frames import Table
from repro.ml import (
    GlobalMeanBaseline,
    GroupMeanBaseline,
    HierarchicalRuleBaseline,
    OnlinePowerPredictor,
    evaluate_online,
)


class TestGlobalMean:
    def test_predicts_mean(self):
        m = GlobalMeanBaseline().fit(np.zeros((4, 2)), [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(m.predict(np.zeros((3, 2))), 2.5)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            GlobalMeanBaseline().predict(np.zeros((1, 1)))


class TestGroupMean:
    def test_per_group_means(self):
        X = np.asarray([[0.0], [0.0], [1.0]])
        m = GroupMeanBaseline().fit(X, [10.0, 20.0, 99.0])
        np.testing.assert_allclose(
            m.predict(np.asarray([[0.0], [1.0]])), [15.0, 99.0]
        )

    def test_fallback_to_global(self):
        X = np.asarray([[0.0], [1.0]])
        m = GroupMeanBaseline().fit(X, [10.0, 30.0])
        assert m.predict(np.asarray([[7.0]]))[0] == 20.0

    def test_bad_columns(self):
        with pytest.raises(ModelError):
            GroupMeanBaseline(group_columns=(5,)).fit(np.zeros((2, 2)), [1.0, 2.0])

    def test_empty_columns(self):
        with pytest.raises(ModelError):
            GroupMeanBaseline(group_columns=())


class TestHierarchicalRule:
    def make(self):
        # columns: user, nodes, wall
        X = np.asarray(
            [
                [0, 2, 100],
                [0, 2, 100],
                [0, 4, 100],
                [1, 2, 100],
            ],
            dtype=float,
        )
        y = np.asarray([10.0, 12.0, 30.0, 50.0])
        return HierarchicalRuleBaseline().fit(X, y)

    def test_exact_match(self):
        m = self.make()
        assert m.predict(np.asarray([[0, 2, 100]], dtype=float))[0] == 11.0

    def test_backoff_to_user_nodes(self):
        m = self.make()
        # (0, 4, 999): unseen exact config; (0,4) level matches.
        assert m.predict(np.asarray([[0, 4, 999]], dtype=float))[0] == 30.0

    def test_backoff_to_user(self):
        m = self.make()
        # (1, 9, 9): only user level matches.
        assert m.predict(np.asarray([[1, 9, 9]], dtype=float))[0] == 50.0

    def test_backoff_to_global(self):
        m = self.make()
        assert m.predict(np.asarray([[7, 7, 7]], dtype=float))[0] == pytest.approx(25.5)

    def test_empty_levels(self):
        with pytest.raises(ModelError):
            HierarchicalRuleBaseline(levels=())

    def test_weaker_than_tree_on_generated_data(self, emmy_small):
        """The paper's claim: rule-based approaches underperform the BDT."""
        from repro.analysis import run_prediction
        from repro.ml import DecisionTreeRegressor

        results = run_prediction(
            emmy_small.jobs,
            models={
                "BDT": lambda: DecisionTreeRegressor(min_samples_leaf=1),
                "rule": HierarchicalRuleBaseline,
                "global": GlobalMeanBaseline,
            },
            n_repeats=2,
        )
        assert (
            results["BDT"].summary.frac_below_10pct
            >= results["rule"].summary.frac_below_10pct - 0.02
        )
        assert (
            results["rule"].summary.frac_below_10pct
            > results["global"].summary.frac_below_10pct
        )


class TestOnlinePredictor:
    def test_learns_exact_config(self):
        p = OnlinePowerPredictor()
        p.observe("u1", 4, 3600, 100.0)
        p.observe("u1", 4, 3600, 110.0)
        assert p.predict("u1", 4, 3600) == pytest.approx(105.0)

    def test_backoff_chain(self):
        p = OnlinePowerPredictor()
        p.observe("u1", 4, 3600, 100.0)
        assert p.predict("u1", 4, 7200) == 100.0  # (user, nodes)
        assert p.predict("u1", 8, 7200) == 100.0  # user level
        assert p.predict("u2", 8, 7200) == 100.0  # global level

    def test_cold_start(self):
        assert OnlinePowerPredictor().predict("u1", 1, 600) == 0.0

    def test_min_count_gate(self):
        p = OnlinePowerPredictor(min_count=2)
        p.observe("u1", 4, 3600, 100.0)
        p.observe("u1", 2, 3600, 50.0)
        # Exact level has 1 observation (< 2): falls through to user (2 obs).
        assert p.predict("u1", 4, 3600) == pytest.approx(75.0)

    def test_invalid_observation(self):
        with pytest.raises(ValidationError):
            OnlinePowerPredictor().observe("u1", 1, 600, 0.0)


class TestEvaluateOnline:
    def test_learning_works(self, emmy_small):
        result = evaluate_online(emmy_small.jobs)
        assert result.summary.n == emmy_small.num_jobs - result.warmup_jobs
        # Once warm, repeated configurations dominate: the median error
        # is small even though new job classes keep arriving (each forces
        # one cold prediction — the curve is not monotone by design).
        assert result.summary.frac_below_10pct > 0.5
        assert result.summary.median < 0.10
        assert not np.any(np.isnan(result.learning_curve))

    def test_online_beats_global_mean(self, emmy_small):
        """The hierarchy must earn its keep over a global running mean."""
        result = evaluate_online(emmy_small.jobs)
        jobs = emmy_small.jobs.sort_by("submit_s")
        actual = jobs["pernode_power_w"].astype(float)
        warm = result.warmup_jobs
        running_mean = np.cumsum(actual) / np.arange(1, len(actual) + 1)
        naive = np.abs(actual[warm:] - running_mean[warm - 1 : -1]) / actual[warm:]
        assert result.summary.mean < naive.mean()

    def test_missing_columns(self):
        with pytest.raises(ValidationError, match="columns"):
            evaluate_online(Table({"user": ["a"] * 20}))

    def test_tiny_table(self, emmy_small):
        with pytest.raises(ValidationError):
            evaluate_online(emmy_small.jobs.head(5))

    def test_bad_warmup(self, emmy_small):
        with pytest.raises(ValidationError):
            evaluate_online(emmy_small.jobs, warmup_fraction=1.0)
