"""The plan the chaos smoke arms: ``soak_plan`` is seeded and replayable.

The soak itself runs through the incident orchestrator
(``repro.incidents.soak_scenario``); its end-to-end audit lives in
``tests/incidents/test_run_scenario.py``.
"""

from __future__ import annotations

from repro.faults import FaultPlan, soak_plan


def test_soak_plans_are_reproducible():
    a, b = soak_plan(seed=11, rate=0.2), soak_plan(seed=11, rate=0.2)
    assert a == b
    for point in a.points:
        assert a.schedule(point, 500) == b.schedule(point, 500)
    # A different seed reshuffles at least one point's schedule.
    other = soak_plan(seed=12, rate=0.2)
    assert any(
        a.schedule(p, 500) != other.schedule(p, 500) for p in a.points
    )


def test_soak_plan_round_trips_through_json(tmp_path):
    plan = soak_plan(seed=7)
    path = tmp_path / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan
