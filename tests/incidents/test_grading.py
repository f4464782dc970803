"""Detectors and grader on synthetic bundles: rules, scores, gates.

No servers here — bundles are constructed in memory with exactly the
evidence under test, so each detector rule's trigger condition, the
grader's precision/recall/time-to-detect conventions, the scorecard's
headline gates and each invariant of the bundle audit are pinned one
edge at a time.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import IncidentError
from repro.incidents.detectors import (
    BASELINE_DETECTORS,
    DetectorAnswer,
    RuleBasedDetector,
    get_detector,
)
from repro.incidents.grader import Scorecard, grade_answer
from repro.incidents.orchestrator import IncidentBundle, audit_bundle

RULES = BASELINE_DETECTORS["rules"]


def mk_bundle(
    name="control",
    fired=None,
    events=(),
    delta=None,
    windows=(),
    ref_latency_s=0.004,
    kind=None,
):
    """A synthetic in-memory bundle with exactly the given evidence."""
    fired = dict(fired or {})
    if kind is None:
        kind = "control" if not fired else (
            "single" if len(fired) == 1 else "compound"
        )
    manifest = {
        "format": "repro-incident-bundle/1",
        "scenario": {"name": name, "kind": kind},
        "ref_latency_s": ref_latency_s,
        "ground_truth": {
            "armed_points": sorted(fired),
            "fired_points": fired,
            "schedule_consistent": True,
        },
        "digest": "0" * 64,
    }
    return IncidentBundle(
        path=Path("synthetic"),
        manifest=manifest,
        events=list(events),
        windows=list(windows),
        metrics={"delta": delta or {}},
    )


def _truth(point, first_t=0.1):
    return {point: {"fires": 3, "first_call": 0, "first_t": first_t}}


# -- detector rules, one signature at a time -----------------------------


def test_clean_bundle_detects_nothing():
    answer = RULES.analyze(mk_bundle())
    assert answer.detected is False and answer.points == {}


def test_batcher_crash_rule_reads_the_crash_counter():
    bundle = mk_bundle(
        name="batcher-crash",
        delta={"repro_batcher_crashes_total": {("BDT",): 2.0}},
        windows=[
            {"t0": 0.0, "t1": 0.25, "series": {}},
            {"t0": 0.25, "t1": 0.5,
             "series": {"repro_batcher_crashes_total": {("BDT",): 2.0}}},
        ],
    )
    answer = RULES.analyze(bundle)
    # Onset: the start of the first window where the counter moved.
    assert answer.points == {"batcher.crash": 0.25}


def test_registry_rule_reads_degraded_outcomes():
    bundle = mk_bundle(
        name="registry-degraded",
        delta={"repro_predict_outcomes_total": {("degraded",): 4.0}},
        events=[{"t": 0.8, "source": "client-0", "kind": "request",
                 "status": 200, "category": "degraded", "malformed": False,
                 "latency_s": 0.004}],
    )
    # No window carried the movement: falls back to the first degraded
    # request event's timestamp.
    assert RULES.analyze(bundle).points == {"registry.train": 0.8}


def test_malformed_rule_reads_400_responses():
    bundle = mk_bundle(
        name="http-malformed",
        delta={"repro_http_responses_total": {("/v1/predict", "400"): 3.0}},
    )
    assert RULES.analyze(bundle).points == {"http.malformed": 0.0}


def test_cache_rules_distinguish_read_write_and_corruption():
    read_err = {"t": 0.3, "source": "ops", "kind": "read_error",
                "error_type": "CacheError", "message": "injected"}
    build_err = {"t": 0.5, "source": "ops", "kind": "build_error",
                 "error_type": "CacheError", "message": "injected"}
    corrupt = {"t": 0.7, "source": "ops", "kind": "read_error",
               "error_type": "UnpicklingError", "message": "injected"}
    # A failed build with no read-side errors implicates the write path.
    assert RULES.analyze(
        mk_bundle(name="cache-write", events=[build_err])
    ).points == {"cache.write": 0.5}
    # Read-side CacheErrors pin the blame on cache.read — even when a
    # build also failed, because pure reads never touch the write path.
    answer = RULES.analyze(
        mk_bundle(name="cache-read", events=[read_err, build_err])
    )
    assert "cache.read" in answer.points
    assert "cache.write" not in answer.points
    # UnpicklingError is corruption, not an IO failure.
    assert RULES.analyze(
        mk_bundle(name="cache-corrupt", events=[corrupt])
    ).points == {"cache.corrupt": 0.7}


def test_telemetry_rule_needs_gap_filled_rebuilds():
    clean = {"t": 0.2, "source": "ops", "kind": "build_ok", "gaps": 0}
    gappy = {"t": 0.6, "source": "ops", "kind": "build_ok", "gaps": 3}
    assert RULES.analyze(
        mk_bundle(name="telemetry-drop", events=[clean])
    ).points == {}
    assert RULES.analyze(
        mk_bundle(name="telemetry-drop", events=[clean, gappy])
    ).points == {"telemetry.drop": 0.6}


def _request(t, latency_s, category="ok"):
    return {"t": t, "source": "client-0", "kind": "request", "status": 200,
            "category": category, "malformed": False, "latency_s": latency_s}


def test_latency_rule_needs_floor_and_ratio():
    # Above ratio x ref but under the absolute floor: scheduler jitter
    # on a fast machine, not an incident.
    fast = mk_bundle(name="x", ref_latency_s=0.001,
                     events=[_request(0.1, 0.02), _request(0.2, 0.02)])
    assert "batcher.latency" not in RULES.analyze(fast).points
    # Above both: fires, onset at the first over-threshold request.
    slow = mk_bundle(name="latency-degradation", ref_latency_s=0.004,
                     events=[_request(0.1, 0.01), _request(0.2, 0.09),
                             _request(0.3, 0.09)])
    assert RULES.analyze(slow).points.get("batcher.latency") == 0.2


def test_conservative_variant_needs_more_evidence():
    conservative = BASELINE_DETECTORS["conservative"]
    one = mk_bundle(name="cache-corrupt", events=[
        {"t": 0.1, "kind": "read_error", "error_type": "UnpicklingError"},
    ])
    two = mk_bundle(name="cache-corrupt", events=one.events + [
        {"t": 0.4, "kind": "read_error", "error_type": "UnpicklingError"},
    ])
    assert conservative.analyze(one).detected is False
    assert conservative.analyze(two).points == {"cache.corrupt": 0.1}
    with pytest.raises(IncidentError, match="min_evidence"):
        RuleBasedDetector(min_evidence=0)
    with pytest.raises(IncidentError, match="unknown detector"):
        get_detector("oracle")


def test_detector_answer_round_trip():
    answer = DetectorAnswer("s", "rules", True, {"cache.read": 0.5,
                                                 "cache.write": None})
    assert DetectorAnswer.from_dict(answer.to_dict()) == answer
    with pytest.raises(IncidentError, match="unknown detector-answer"):
        DetectorAnswer.from_dict({"scenario": "s", "detected": True,
                                  "confidence": 0.9})


# -- grading conventions -------------------------------------------------


def test_perfect_answer_on_a_faulted_bundle():
    bundle = mk_bundle(name="cache-corrupt", fired=_truth("cache.corrupt"))
    answer = DetectorAnswer("cache-corrupt", "rules", True,
                            {"cache.corrupt": 0.4})
    grade = grade_answer(bundle, answer)
    assert (grade.precision, grade.recall, grade.f1) == (1.0, 1.0, 1.0)
    assert grade.detection_correct and not grade.false_alarm
    assert grade.ttd_s == {"cache.corrupt": pytest.approx(0.3)}
    assert grade.onset_hits == grade.onset_scored == 1
    assert grade.mean_ttd_s == pytest.approx(0.3)


def test_empty_answer_on_a_faulted_bundle_scores_zero():
    bundle = mk_bundle(name="cache-corrupt", fired=_truth("cache.corrupt"))
    answer = DetectorAnswer("cache-corrupt", "rules", False, {})
    grade = grade_answer(bundle, answer)
    assert grade.precision == 0.0 and grade.recall == 0.0
    assert grade.detection_correct is False and grade.false_alarm is False


def test_clean_answer_on_control_is_perfect():
    grade = grade_answer(mk_bundle(), DetectorAnswer("control", "rules",
                                                     False, {}))
    assert (grade.precision, grade.recall, grade.f1) == (1.0, 1.0, 1.0)
    assert grade.detection_correct and not grade.false_alarm


def test_false_alarm_on_control():
    answer = DetectorAnswer("control", "rules", True, {"cache.read": 0.1})
    grade = grade_answer(mk_bundle(), answer)
    assert grade.false_alarm is True and grade.detection_correct is False
    assert grade.precision == 0.0


def test_onset_outside_tolerance_is_scored_but_not_a_hit():
    bundle = mk_bundle(name="s", fired=_truth("cache.read", first_t=0.1))
    late = DetectorAnswer("s", "rules", True, {"cache.read": 9.0})
    grade = grade_answer(bundle, late, onset_tolerance_s=2.0)
    assert grade.onset_scored == 1 and grade.onset_hits == 0
    # A point localized without a timing estimate is simply unscored.
    untimed = DetectorAnswer("s", "rules", True, {"cache.read": None})
    grade = grade_answer(bundle, untimed)
    assert grade.onset_scored == 0 and grade.ttd_s == {}


def test_grader_refuses_mismatched_scenarios():
    with pytest.raises(IncidentError, match="answer is for"):
        grade_answer(mk_bundle(name="control"),
                     DetectorAnswer("cache-read", "rules", False, {}))


# -- scorecard gates -----------------------------------------------------


def _grade(name, fired, points, detector="rules"):
    answer = DetectorAnswer(name, detector, bool(points), dict(points))
    return grade_answer(mk_bundle(name=name, fired=fired), answer)


def test_scorecard_passes_when_gates_are_met():
    card = Scorecard(detector="rules")
    card.add(_grade("control", {}, {}))
    card.add(_grade("cache-corrupt", _truth("cache.corrupt"),
                    {"cache.corrupt": 0.2}))
    assert card.passed and card.problems() == []
    assert card.single_point_recall == 1.0
    assert card.control_false_positives == 0
    data = card.to_dict()
    assert data["passed"] is True and data["n_scenarios"] == 2
    assert "PASS" in card.summary()


def test_scorecard_gates_fail_loudly():
    card = Scorecard(detector="rules")
    card.add(_grade("control", {}, {"cache.read": 0.1}))  # false alarm
    card.add(_grade("cache-corrupt", _truth("cache.corrupt"), {}))  # miss
    problems = card.problems()
    assert any("single-point" in p for p in problems)
    assert any("false positive" in p for p in problems)
    assert any("detection verdict" in p for p in problems)
    assert card.passed is False and "FAIL" in card.summary()


def test_scorecard_rejects_foreign_grades_and_empty_runs():
    card = Scorecard(detector="rules")
    assert card.problems() == ["no scenarios were graded"]
    with pytest.raises(IncidentError, match="scorecard"):
        card.add(_grade("control", {}, {}, detector="conservative"))


# -- the bundle audit ------------------------------------------------------


def _audited_bundle():
    """A synthetic bundle that passes every invariant audit_bundle checks."""
    bundle = mk_bundle(
        name="cache-read",
        fired=_truth("cache.read"),
        events=[{"kind": "request", "category": "ok"}] * 20,
        delta={
            "repro_requests_total": {(): 20.0},
            "repro_predict_outcomes_total": {("ok",): 20.0, ("failed",): 0.0},
            # A zero-delta series left by an earlier run is not a mismatch.
            "repro_fault_fires_total": {("cache.read",): 3.0, ("cache.write",): 0.0},
        },
    )
    bundle.ledger = [{"point": "cache.read", "call": n, "t": 0.1} for n in range(3)]
    bundle.manifest.update(recovered_identical=True, stuck_futures=0)
    return bundle


def _lose(b):
    b.events.append({"kind": "request", "category": "lost"})


def _fail(b):
    b.events.extend([{"kind": "request", "category": "server_error"}] * 2)


def _miscount(b):
    b.metrics["delta"]["repro_requests_total"] = {(): 21.0}


def _drop_ledger_record(b):
    b.ledger.pop()


def _arm_unfired(b):
    b.ground_truth["armed_points"].append("cache.write")


def _break_schedule(b):
    b.ground_truth["schedule_consistent"] = False


def _diverge(b):
    b.manifest["recovered_identical"] = False


def _strand(b):
    b.manifest["stuck_futures"] = 2


@pytest.mark.parametrize(
    "breaks, problem",
    [
        (_lose, "1 request(s) got no answer"),
        (_fail, "2 of 22 requests failed"),
        (_miscount, "outcome series account for 20"),
        (_drop_ledger_record, "point=cache.read} moved by 3, the ledger has 2"),
        (_arm_unfired, "never fired: ['cache.write']"),
        (_break_schedule, "schedule"),
        (_diverge, "warmup baseline"),
        (_strand, "stuck futures after stop: 2"),
    ],
)
def test_audit_bundle_flags_each_broken_invariant(breaks, problem):
    bundle = _audited_bundle()
    assert audit_bundle(bundle) == []
    breaks(bundle)
    problems = audit_bundle(bundle)
    assert len(problems) == 1 and problem in problems[0], problems
