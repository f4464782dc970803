"""FaultPlan/FaultRule: determinism, windows, serialization, validation."""

from __future__ import annotations

import pytest

from repro.errors import FaultError
from repro.faults import (
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    decide,
    soak_plan,
)


def test_same_seed_same_schedule():
    plan_a = FaultPlan(seed=7, rules=(FaultRule("cache.read", rate=0.3),))
    plan_b = FaultPlan(seed=7, rules=(FaultRule("cache.read", rate=0.3),))
    assert plan_a.schedule("cache.read", 500) == plan_b.schedule("cache.read", 500)
    assert plan_a.schedule("cache.read", 500)  # a 30% rule fires in 500 calls


def test_different_seed_different_schedule():
    rules = (FaultRule("cache.read", rate=0.3),)
    a = FaultPlan(seed=1, rules=rules).schedule("cache.read", 500)
    b = FaultPlan(seed=2, rules=rules).schedule("cache.read", 500)
    assert a != b


def test_decide_is_pure_and_rate_bounded():
    rule = FaultRule("batcher.crash", rate=0.25)
    fires = [decide(rule, 11, n) for n in range(4000)]
    assert fires == [decide(rule, 11, n) for n in range(4000)]
    # The sha-draw is uniform: the empirical rate lands near 25%.
    assert 0.20 < sum(fires) / len(fires) < 0.30


def test_rate_zero_never_fires_rate_one_always_fires():
    never = FaultRule("cache.write", rate=0.0)
    always = FaultRule("cache.write", rate=1.0)
    assert not any(decide(never, 0, n) for n in range(100))
    assert all(decide(always, 0, n) for n in range(100))


def test_window_bounds_fires():
    rule = FaultRule("telemetry.drop", rate=1.0, start=10, stop=20)
    plan = FaultPlan(seed=0, rules=(rule,))
    assert plan.schedule("telemetry.drop", 50) == tuple(range(10, 20))


def test_force_calls_fire_regardless_of_rate():
    rule = FaultRule("registry.train", rate=0.0, force_calls=(3, 7))
    plan = FaultPlan(seed=5, rules=(rule,))
    assert plan.schedule("registry.train", 10) == (3, 7)
    # ... but only inside the window.
    windowed = FaultRule("registry.train", rate=0.0, start=5, force_calls=(3, 7))
    assert FaultPlan(rules=(windowed,)).schedule("registry.train", 10) == (7,)


def test_unscheduled_point_never_fires():
    plan = FaultPlan(seed=0, rules=(FaultRule("cache.read", rate=1.0),))
    assert plan.rule_for("batcher.crash") is None
    assert plan.schedule("batcher.crash", 100) == ()


def test_round_trips_through_json(tmp_path):
    plan = FaultPlan(
        seed=42,
        rules=(
            FaultRule("cache.read", rate=0.5, start=2, stop=9, force_calls=(4,)),
            FaultRule("batcher.latency", rate=1.0, duration_s=0.001),
        ),
    )
    assert FaultPlan.from_dict(plan.to_dict()) == plan
    path = plan.save(tmp_path / "plan.json")
    assert FaultPlan.load(path) == plan


def test_validation_rejects_bad_rules_and_plans(tmp_path):
    with pytest.raises(FaultError, match="unknown injection point"):
        FaultRule("no.such.point", rate=0.1)
    with pytest.raises(FaultError, match="rate"):
        FaultRule("cache.read", rate=1.5)
    with pytest.raises(FaultError, match="stop"):
        FaultRule("cache.read", rate=0.1, start=5, stop=5)
    with pytest.raises(FaultError, match="duration_s"):
        FaultRule("batcher.latency", duration_s=-1.0)
    with pytest.raises(FaultError, match="duplicate"):
        FaultPlan(rules=(FaultRule("cache.read"), FaultRule("cache.read")))
    with pytest.raises(FaultError, match="unknown fault-rule fields"):
        FaultRule.from_dict({"point": "cache.read", "probability": 0.5})
    with pytest.raises(FaultError, match="cannot load"):
        FaultPlan.load(tmp_path / "missing.json")


def test_soak_plan_covers_every_point_with_a_forced_fire():
    plan = soak_plan(seed=9, rate=0.2, latency_s=0.003)
    assert set(plan.points) == set(INJECTION_POINTS)
    for point in INJECTION_POINTS:
        rule = plan.rule_for(point)
        assert rule.force_calls == (0,)
        assert plan.schedule(point, 1) == (0,)
        expected = 0.003 if point == "batcher.latency" else 0.0
        assert rule.duration_s == expected
