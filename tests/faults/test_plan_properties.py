"""Property tests for the seeded fault schedule (Hypothesis).

The determinism contract behind the whole chaos/incident stack is that
``decide(rule, seed, n)`` is a *pure* function of ``(seed, point, n)``
and the rule's window — no RNG objects, no process state. These
properties pin that contract across randomly generated rules and plans
instead of a few hand-picked examples: same inputs ⇒ same schedule,
JSON round-trips are lossless, windows and forced calls behave as
documented, and the soak plan covers every injection point.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.errors import FaultError  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    decide,
    soak_plan,
)

POINTS = sorted(INJECTION_POINTS)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
call_counts = st.integers(min_value=0, max_value=64)


@st.composite
def rules(draw, point=None):
    """A valid FaultRule with a random window and forced calls."""
    start = draw(st.integers(min_value=0, max_value=16))
    stop = draw(st.one_of(
        st.none(), st.integers(min_value=start + 1, max_value=48)
    ))
    return FaultRule(
        point=point if point is not None else draw(st.sampled_from(POINTS)),
        rate=draw(st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False, allow_infinity=False)),
        start=start,
        stop=stop,
        force_calls=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=48), max_size=4
        ))),
        duration_s=draw(st.sampled_from((0.0, 0.001, 0.5))),
    )


@st.composite
def plans(draw):
    """A valid FaultPlan: one rule per (distinct) point."""
    chosen = draw(st.lists(st.sampled_from(POINTS), unique=True, max_size=4))
    return FaultPlan(
        seed=draw(seeds),
        rules=tuple(draw(rules(point=p)) for p in chosen),
    )


# -- decide: purity and window semantics ---------------------------------


@given(rule=rules(), seed=seeds, n=st.integers(min_value=0, max_value=256))
def test_decide_is_a_pure_function_of_seed_point_n(rule, seed, n):
    first = decide(rule, seed, n)
    # Same inputs, fresh call: bit-identical outcome, no hidden state.
    assert decide(rule, seed, n) is first
    # An equal rule built from the JSON round-trip decides identically.
    clone = FaultRule.from_dict(json.loads(json.dumps(rule.to_dict())))
    assert decide(clone, seed, n) is first


@given(rule=rules(), seed=seeds, n=st.integers(min_value=0, max_value=256))
def test_decide_never_fires_outside_the_window(rule, seed, n):
    inside = rule.start <= n and (rule.stop is None or n < rule.stop)
    if not inside:
        assert decide(rule, seed, n) is False
    elif n in rule.force_calls:
        assert decide(rule, seed, n) is True


@given(point=st.sampled_from(POINTS), seed=seeds, n=call_counts)
def test_rate_extremes_are_laws_not_samples(point, seed, n):
    never = FaultRule(point, rate=0.0)
    always = FaultRule(point, rate=1.0)
    assert decide(never, seed, n) is False
    # rate=1.0 fires on every in-window call (the draw lives in [0, 1)).
    assert decide(always, seed, n) is True


# -- schedules: prefix stability and replay ------------------------------


@given(plan=plans(), n=call_counts, m=call_counts)
def test_schedule_prefixes_agree(plan, n, m):
    """Extending a run never rewrites history: schedules are prefixes."""
    lo, hi = sorted((n, m))
    for point in plan.points:
        long = plan.schedule(point, hi)
        assert plan.schedule(point, lo) == tuple(i for i in long if i < lo)
        assert all(0 <= i < hi for i in long)


@given(plan=plans(), n=call_counts)
def test_schedule_replays_after_json_round_trip(plan, n):
    clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert clone == plan
    for point in plan.points:
        assert clone.schedule(point, n) == plan.schedule(point, n)


@settings(max_examples=25)
@given(plan=plans())
def test_save_load_round_trip(plan, tmp_path_factory):
    path = tmp_path_factory.mktemp("plans") / "plan.json"
    plan.save(path)
    assert FaultPlan.load(path) == plan


@given(plan=plans())
def test_points_and_rule_for_agree(plan):
    for point in POINTS:
        rule = plan.rule_for(point)
        assert (rule is not None) == (point in plan.points)
        if rule is not None:
            assert rule.point == point
    for absent in set(POINTS) - set(plan.points):
        assert plan.schedule(absent, 32) == ()


# -- soak plan: coverage guarantee ---------------------------------------


@given(seed=seeds,
       rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_soak_plan_covers_every_point_at_least_once(seed, rate):
    plan = soak_plan(seed=seed, rate=rate)
    assert set(plan.points) == set(INJECTION_POINTS)
    for point in plan.points:
        # The forced first-call fire makes coverage a guarantee, not a
        # rate question: one call suffices for every point, at any rate.
        assert plan.schedule(point, 1) == (0,)
    latency = plan.rule_for("batcher.latency")
    assert latency is not None and latency.duration_s > 0


# -- validation: invalid inputs fail loudly ------------------------------


@given(start=st.integers(min_value=1, max_value=32))
def test_inverted_windows_are_rejected(start):
    with pytest.raises(FaultError, match="stop must be > start"):
        FaultRule("cache.read", start=start, stop=start)


def test_duplicate_points_and_bad_rates_are_rejected():
    with pytest.raises(FaultError, match="duplicate rule"):
        FaultPlan(rules=(FaultRule("cache.read"), FaultRule("cache.read")))
    with pytest.raises(FaultError, match="rate must be in"):
        FaultRule("cache.read", rate=1.5)
    with pytest.raises(FaultError, match="unknown injection point"):
        FaultRule("cache.explode")
