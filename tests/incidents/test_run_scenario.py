"""run_scenario end-to-end: live system, real bundles, graded answers.

Tier-1 keeps this to the two scenarios the CI smoke also runs — the
fault-free control and one single-point fault — plus a short chaos
soak, so the full loop (serve, arm, observe, bundle, audit, detect,
grade) is exercised on every test run without dragging the whole
catalog in. The catalog sweep is marked ``slow`` (``pytest -m slow``);
``tools/incidents_bench.py`` covers it in full.
"""

from __future__ import annotations

import shutil

import pytest

from repro.faults.plan import INJECTION_POINTS
from repro.incidents.detectors import get_detector
from repro.incidents.grader import Scorecard, grade_answer
from repro.incidents.orchestrator import (
    ANSWER_KEY_METRICS,
    BUNDLE_MANIFEST,
    IncidentBundle,
    audit_bundle,
    run_scenario,
)
from repro.incidents.scenarios import soak_scenario

BUNDLE_FILES = (
    BUNDLE_MANIFEST, "ledger.jsonl", "events.jsonl", "windows.jsonl",
    "metrics.json", "trace.jsonl",
)


@pytest.fixture(scope="module")
def control_bundle(tmp_path_factory, incidents_cache):
    out = tmp_path_factory.mktemp("bundle-control")
    return run_scenario("control", out, cache_dir=incidents_cache)


@pytest.fixture(scope="module")
def corrupt_bundle(tmp_path_factory, incidents_cache):
    out = tmp_path_factory.mktemp("bundle-corrupt")
    return run_scenario("cache-corrupt", out, cache_dir=incidents_cache)


def test_control_bundle_is_complete_and_clean(control_bundle):
    for name in BUNDLE_FILES:
        assert (control_bundle.path / name).is_file(), name
    truth = control_bundle.ground_truth
    assert truth["armed_points"] == []
    assert truth["fired_points"] == {}
    assert truth["schedule_consistent"] is True
    assert control_bundle.ledger == []
    # The load actually ran: client traffic and operator activity.
    kinds = {e["kind"] for e in control_bundle.events}
    assert "request" in kinds and "build_ok" in kinds
    assert control_bundle.manifest["ref_latency_s"] > 0
    assert len(control_bundle.windows) >= 1
    assert control_bundle.manifest["recovered_identical"] is True
    assert audit_bundle(control_bundle) == []


def test_control_yields_no_false_positives(control_bundle):
    answer = get_detector("rules").analyze(control_bundle)
    assert answer.detected is False and answer.points == {}
    grade = grade_answer(control_bundle, answer)
    assert grade.precision == grade.recall == 1.0


def test_single_point_fault_is_fired_detected_and_graded(corrupt_bundle):
    truth = corrupt_bundle.ground_truth
    assert truth["armed_points"] == ["cache.corrupt"]
    fired = truth["fired_points"]["cache.corrupt"]
    # The forced first call makes the fired set deterministic.
    assert fired["first_call"] == 0 and fired["fires"] >= 1
    assert truth["schedule_consistent"] is True
    assert corrupt_bundle.ledger[0]["point"] == "cache.corrupt"
    answer = get_detector("rules").analyze(corrupt_bundle)
    grade = grade_answer(corrupt_bundle, answer)
    assert grade.recall == 1.0 and grade.detection_correct


def test_bundle_round_trips_through_disk(corrupt_bundle):
    reloaded = IncidentBundle.load(corrupt_bundle.path)
    assert reloaded.manifest == corrupt_bundle.manifest
    assert reloaded.ledger == corrupt_bundle.ledger
    assert reloaded.events == corrupt_bundle.events
    assert len(reloaded.windows) == len(corrupt_bundle.windows)
    assert reloaded.metric_delta() == corrupt_bundle.metric_delta()
    # And the answer key is present for the grader's audit but separable
    # from what detectors may read.
    delta = reloaded.metric_delta()
    assert any(delta.get(m) for m in ANSWER_KEY_METRICS)


def test_loading_a_non_bundle_fails_loudly(tmp_path):
    from repro.errors import IncidentError

    with pytest.raises(IncidentError, match="not an incident bundle"):
        IncidentBundle.load(tmp_path)


@pytest.mark.parametrize(
    "broken",
    ["events.jsonl", "ledger.jsonl", "windows.jsonl", "metrics.json",
     "missing-answers.json", "answers.json"],
)
def test_grade_reports_unreadable_inputs_as_errors(
    control_bundle, tmp_path, capsys, broken
):
    from repro.cli import main

    bundle = shutil.copytree(control_bundle.path, tmp_path / "control")
    argv = ["incidents", "grade", str(bundle)]
    if "answers" in broken:
        if broken == "answers.json":
            (tmp_path / broken).write_text("not json")
        argv += ["--answers", str(tmp_path / broken)]
    else:
        (bundle / broken).write_text('{"truncated": \n')
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and broken in err


def test_short_soak_passes_the_audit(tmp_path, incidents_cache):
    bundle = run_scenario(soak_scenario(seed=5), tmp_path, cache_dir=incidents_cache)
    assert audit_bundle(bundle) == []
    assert sorted(bundle.ground_truth["fired_points"]) == sorted(INJECTION_POINTS)


@pytest.mark.slow
def test_catalog_sweep_passes_the_gates(tmp_path_factory, incidents_cache):
    """A broader slice of the catalog, graded against the gates."""
    names = ("delayed-cache-corrupt", "batcher-crash", "registry-degraded",
             "latency-degradation", "compound-storm")
    out = tmp_path_factory.mktemp("bundle-sweep")
    detector = get_detector("rules")
    card = Scorecard(detector=detector.name)
    for name in names:
        bundle = run_scenario(name, out, cache_dir=incidents_cache)
        assert bundle.manifest["recovered_identical"] is True, name
        assert audit_bundle(bundle) == [], name
        card.add(grade_answer(bundle, detector.analyze(bundle)))
    assert card.passed, card.summary()
    assert card.mean_recall == 1.0
