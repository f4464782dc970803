"""Tests for power-capping, over-provisioning, and pricing policies."""

import numpy as np
import pytest

from repro.errors import PolicyError
from repro.policy import (
    StaticCapPolicy,
    evaluate_capping,
    evaluate_overprovisioning,
)


class TestCapping:
    def test_policy_cap_level(self):
        policy = StaticCapPolicy(headroom=0.15)
        assert policy.cap_for(100.0) == pytest.approx(115.0)

    def test_negative_headroom_rejected(self):
        with pytest.raises(PolicyError):
            StaticCapPolicy(headroom=-0.1)

    def test_replay_on_dataset(self, emmy_small):
        outcome = evaluate_capping(emmy_small)
        assert outcome.n_jobs == len(emmy_small.traces)
        assert 0 <= outcome.throttled_node_minute_fraction <= 1
        assert 0 <= outcome.frac_jobs_unthrottled <= 1
        # The paper's premise: predicted+15% caps rarely bind.
        assert outcome.throttled_node_minute_fraction < 0.15
        assert outcome.provisioned_power_saved_fraction > 0.0

    def test_larger_headroom_throttles_less(self, emmy_small):
        tight = evaluate_capping(emmy_small, StaticCapPolicy(headroom=0.02))
        loose = evaluate_capping(emmy_small, StaticCapPolicy(headroom=0.30))
        assert (
            loose.throttled_node_minute_fraction
            <= tight.throttled_node_minute_fraction
        )
        assert loose.frac_jobs_unthrottled >= tight.frac_jobs_unthrottled

    def test_prediction_error_hurts(self, emmy_small):
        perfect = evaluate_capping(emmy_small, prediction_error=0.0)
        biased = evaluate_capping(emmy_small, prediction_error=0.10)
        assert (
            biased.throttled_node_minute_fraction
            >= perfect.throttled_node_minute_fraction
        )

    def test_invalid_prediction_error(self, emmy_small):
        with pytest.raises(PolicyError):
            evaluate_capping(emmy_small, prediction_error=1.0)


class TestOverprovisioning:
    def test_extra_nodes_fit(self, emmy_small):
        outcome = evaluate_overprovisioning(emmy_small)
        assert outcome.supported_nodes >= outcome.original_nodes
        assert outcome.extra_nodes == outcome.supported_nodes - outcome.original_nodes
        assert outcome.throughput_gain >= 0.0
        # Stranded power must buy a real gain when sized to the typical
        # (rather than worst-minute) draw; small replicas have noisy p99.
        relaxed = evaluate_overprovisioning(emmy_small, sizing_quantile=0.9)
        assert relaxed.throughput_gain > 0.05
        assert 0 <= outcome.budget_exceedance_fraction <= 1

    def test_tighter_quantile_more_nodes(self, emmy_small):
        aggressive = evaluate_overprovisioning(emmy_small, sizing_quantile=0.5)
        conservative = evaluate_overprovisioning(emmy_small, sizing_quantile=1.0)
        assert aggressive.supported_nodes >= conservative.supported_nodes

    def test_invalid_quantile(self, emmy_small):
        with pytest.raises(PolicyError):
            evaluate_overprovisioning(emmy_small, sizing_quantile=0.0)


class TestPricing:
    def test_mispricing_exists(self, emmy_small):
        """Sec 6: node-hour pricing misprices a visible share of jobs.

        A job's energy share over its node-hour share is its per-node
        power over the node-hour-weighted mean per-node power.
        """
        jobs = emmy_small.jobs
        power = jobs["pernode_power_w"]
        ratio = power / np.average(power, weights=jobs["node_hours"])
        assert np.mean((ratio > 1.10) | (ratio < 0.90)) > 0.05
