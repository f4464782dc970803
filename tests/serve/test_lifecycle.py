"""Model lifecycle: feedback determinism, drift, shadow, promote/rollback.

The acceptance bars (docs/LIFECYCLE.md):

* feedback ingest is prequential and deterministic — the same records
  in the same order produce a bit-identical learner state, regardless
  of batch boundaries;
* promote -> rollback round-trips to *bit-identical* predictions
  (versions are immutable artifacts);
* shadow mirroring never blocks or reorders live responses, even when
  the candidate's batcher is stalled outright or slowed by the
  ``batcher.latency`` fault;
* the append-only journal tolerates torn tails and survives artifact
  -cache corruption (``cache.corrupt``) with its lineage intact.
"""

from __future__ import annotations

import json
import threading
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.faults import FaultPlan, FaultRule, arm
from repro.obs import MetricsRegistry
from repro.serve import (
    ModelLifecycle,
    ModelRegistry,
    PredictionService,
    PredictRequest,
)
from repro.serve.lifecycle import LineageJournal, replay_feedback


def _lifecycle(tiny_spec, serve_cache, tmp_path, **kwargs) -> ModelLifecycle:
    kwargs.setdefault("metrics", MetricsRegistry())
    return ModelLifecycle(
        tiny_spec,
        registry=ModelRegistry(cache_dir=serve_cache),
        lifecycle_dir=tmp_path / "lifecycle",
        **kwargs,
    )


def _online(service, records):
    return service.predict_request(
        PredictRequest(records=records, model="online")
    )


# -- prequential determinism ---------------------------------------------


def test_feedback_is_deterministic_across_batch_boundaries(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    """Same records, same order -> bit-identical learner state."""
    one = _lifecycle(tiny_spec, serve_cache, tmp_path / "a",
                     seed_learner_from_active=False)
    one.feedback(feedback_records)

    many = _lifecycle(tiny_spec, serve_cache, tmp_path / "b",
                      seed_learner_from_active=False)
    for start in range(0, len(feedback_records), 7):
        many.feedback(feedback_records[start:start + 7])

    assert one.learner_digest() == many.learner_digest()


def test_feedback_order_changes_the_state_digest(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    fwd = _lifecycle(tiny_spec, serve_cache, tmp_path / "f",
                     seed_learner_from_active=False)
    fwd.feedback(feedback_records)
    rev = _lifecycle(tiny_spec, serve_cache, tmp_path / "r",
                     seed_learner_from_active=False)
    rev.feedback(list(reversed(feedback_records)))
    # Jobs-seen matches, running means match, but the welford-style
    # intermediate state reflects feed order.
    assert fwd._ensure_learner().jobs_seen == rev._ensure_learner().jobs_seen
    assert fwd.learner_digest() != rev.learner_digest()


def test_replay_feedback_matches_manual_feed(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    from repro.pipeline import build_dataset

    dataset = build_dataset(**tiny_spec.dataset_kwargs(), cache_dir=serve_cache)
    replayed = _lifecycle(tiny_spec, serve_cache, tmp_path / "rp",
                          seed_learner_from_active=False)
    out = replay_feedback(replayed, dataset.jobs, limit=len(feedback_records),
                          batch=13)
    assert out["replayed"] == len(feedback_records)

    manual = _lifecycle(tiny_spec, serve_cache, tmp_path / "mn",
                        seed_learner_from_active=False)
    manual.feedback(feedback_records)
    assert replayed.learner_digest() == manual.learner_digest()


def test_feedback_validation_rejects_bad_records(
    tiny_spec, serve_cache, tmp_path
):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    with pytest.raises(ServeError, match="at least one"):
        lc.feedback([])
    with pytest.raises(ServeError, match="lacks fields"):
        lc.feedback([{"user": "u", "nodes": 1}])
    with pytest.raises(ServeError, match="positive"):
        lc.feedback([{"user": "u", "nodes": 1, "req_walltime_s": 60,
                      "power_w": 0.0}])


def test_feedback_appends_to_the_scenario_log(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path,
                    seed_learner_from_active=False)
    lc.feedback(feedback_records[:5])
    lc.feedback(feedback_records[5:9])
    lines = lc.feedback_path.read_text().splitlines()
    assert len(lines) == 9
    assert json.loads(lines[0])["user"] == feedback_records[0]["user"]


# -- drift ----------------------------------------------------------------


def test_drift_fires_on_shifted_window_and_resets_on_promote(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path, min_window=16)
    reference = feedback_records[:16]
    out = lc.feedback(reference)          # first window -> reference
    assert out["drift"] == []
    shifted = [{**r, "power_w": r["power_w"] * 10.0, "nodes": r["nodes"] * 20}
               for r in reference]
    out = lc.feedback(shifted)
    rules = [rule for event in out["drift"] for rule in event["rules"]]
    assert "error" in rules and "feature:nodes" in rules
    assert lc.drift_active("online")
    assert [e["event"] for e in lc.history("online")].count("drift") == 1

    version = lc.create_candidate("online", who="t", why="drift")
    lc.promote("online", version, who="t", why="drift")
    assert not lc.drift_active("online")  # promote resets the latch


# -- promote / rollback ---------------------------------------------------


def test_promote_rollback_round_trip_is_bit_identical(
    tiny_spec, serve_cache, tmp_path, feedback_records, tiny_records
):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    service = PredictionService(
        tiny_spec, registry=lc.registry, lifecycle=lc, max_wait_s=0.001
    )
    try:
        before = _online(service, tiny_records).predictions
        # Shifted outcomes: the updated learner must actually move.
        lc.feedback([{**r, "power_w": r["power_w"] * 1.5}
                     for r in feedback_records])
        version = lc.create_candidate("online", who="t", why="fresh state")
        assert version >= 2

        event = lc.promote("online", version, who="t", why="better")
        assert event["from_version"] == 1 and event["version"] == version
        promoted = _online(service, tiny_records)
        assert promoted.version == version
        # The candidate really is the feedback-updated learner.
        assert not np.array_equal(promoted.predictions, before)

        event = lc.rollback("online", who="t", why="regression")
        assert event["version"] == 1
        restored = _online(service, tiny_records)
        assert restored.version == 1
        np.testing.assert_array_equal(restored.predictions, before)
    finally:
        service.close()


def test_promote_guards(tiny_spec, serve_cache, tmp_path, feedback_records):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    with pytest.raises(ServeError, match="already active"):
        lc.promote("online", 1)
    with pytest.raises(ServeError, match="no stored artifact"):
        lc.promote("online", 99)
    lc.feedback(feedback_records[:4])
    v = lc.create_candidate("online")
    lc.promote("online", v)
    with pytest.raises(ServeError, match="already at version"):
        lc.rollback("online", to_version=v)


def test_rollback_retires_the_candidate(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    lc.feedback(feedback_records[:4])
    v = lc.create_candidate("online")
    assert lc.candidate_version("online") == v
    lc.promote("online", v)
    lc.rollback("online")
    # The rejected version must not silently re-enter shadowing.
    assert lc.candidate_version("online") is None
    assert lc.active_version("online") == 1


def test_journal_is_shared_across_managers(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    """Two managers on one journal file see each other's promotes."""
    a = _lifecycle(tiny_spec, serve_cache, tmp_path)
    b = ModelLifecycle(
        tiny_spec, registry=a.registry, lifecycle_dir=tmp_path / "lifecycle",
        metrics=MetricsRegistry(), journal_poll_s=0.0,
    )
    a.feedback(feedback_records[:4])
    v = a.create_candidate("online", who="a")
    a.promote("online", v, who="a")
    assert b.active_version("online") == v


# -- shadow evaluation ----------------------------------------------------


def _wait_for(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def test_shadow_mirroring_never_blocks_live_responses(
    tiny_spec, serve_cache, tmp_path, feedback_records, tiny_records
):
    """Live answers return while the candidate's batcher is stalled."""
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    service = PredictionService(
        tiny_spec, registry=lc.registry, lifecycle=lc, max_wait_s=0.001
    )
    try:
        baseline = _online(service, tiny_records).predictions
        lc.feedback(feedback_records)
        version = lc.create_candidate("online", who="t", why="shadow")
        shadow_key = (tiny_spec.dataset_digest, "online", version)

        # First mirrored request spawns the background batcher build.
        _online(service, tiny_records[:2])
        assert _wait_for(lambda: shadow_key in service._batchers)

        # Stall the candidate outright: its predicts block on a gate.
        gate = threading.Event()
        shadow_batcher = service._batchers[shadow_key]
        real_predict = shadow_batcher._predict_fn

        def gated_predict(records):
            gate.wait()
            return real_predict(records)

        shadow_batcher._predict_fn = gated_predict
        report_before = lc.shadow_report("online") or {"n": 0}

        start = time.monotonic()
        live = _online(service, tiny_records)
        elapsed = time.monotonic() - start
        # Live came back correct, in order, served by the active
        # version, without waiting on the gated shadow.
        np.testing.assert_array_equal(live.predictions, baseline)
        assert live.version == 1
        assert elapsed < 5.0 and not gate.is_set()

        gate.set()  # drain: the mirrored records now complete
        assert _wait_for(
            lambda: (lc.shadow_report("online") or {"n": 0})["n"]
            > report_before["n"]
        )
    finally:
        gate.set()
        service.close()


def test_shadow_under_batcher_latency_fault_keeps_live_exact(
    tiny_spec, serve_cache, tmp_path, feedback_records, tiny_records
):
    """batcher.latency slows every batch; live stays exact and ordered."""
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    service = PredictionService(
        tiny_spec, registry=lc.registry, lifecycle=lc, max_wait_s=0.001
    )
    try:
        baseline = _online(service, tiny_records).predictions
        lc.feedback(feedback_records)
        lc.create_candidate("online", who="t", why="latency fault")
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule("batcher.latency", rate=1.0, duration_s=0.01),),
        )
        with arm(plan):
            for _ in range(3):
                live = _online(service, tiny_records)
                np.testing.assert_array_equal(live.predictions, baseline)
                assert live.version == 1 and not live.degraded
    finally:
        service.close()


# -- journal durability ---------------------------------------------------


def test_journal_tolerates_a_torn_tail(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = LineageJournal(path, poll_s=0.0)
    journal.append("register", "online", version=2, trained_at_key="k")
    journal.append("promote", "online", version=2, from_version=1)
    with path.open("a") as fh:
        fh.write('{"seq": 3, "event": "rollb')  # crash mid-append

    reader = LineageJournal(path, poll_s=0.0)
    assert reader.active_version("online") == 2
    assert len(reader.history()) == 2
    # The torn tail is a *pending* partial line (a writer could still
    # be mid-append), not damage — history simply excludes it.
    assert reader.damaged_lines == 0


def test_journal_skips_and_counts_damaged_lines(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = LineageJournal(path, poll_s=0.0)
    journal.append("register", "online", version=2, trained_at_key="k")
    with path.open("a") as fh:
        fh.write("not json at all\n")
    journal.append("promote", "online", version=2, from_version=1)

    reader = LineageJournal(path, poll_s=0.0)
    assert reader.active_version("online") == 2
    assert reader.damaged_lines == 1


def test_journal_survives_cache_corruption(
    tiny_spec, serve_cache, tmp_path, feedback_records
):
    """cache.corrupt poisons artifacts, never the lineage journal."""
    lc = _lifecycle(tiny_spec, serve_cache, tmp_path)
    lc.feedback(feedback_records[:4])
    v = lc.create_candidate("online", who="t")
    lc.promote("online", v, who="t")
    events_before = [e["event"] for e in lc.history()]

    plan = FaultPlan(seed=0, rules=(FaultRule("cache.corrupt", rate=1.0),))
    with arm(plan):
        # v1 estimator artifacts silently retrain through the fault...
        registry = ModelRegistry(cache_dir=serve_cache)
        registry.get(tiny_spec, "BDT")
        # ...immutable snapshots refuse to guess...
        with pytest.raises(ServeError, match="cannot be retrained"):
            registry.get(tiny_spec, "online", version=v)
        # ...and the journal (plain JSONL, not a cache artifact) keeps
        # the full audit trail and the active pointer.
        fresh = ModelLifecycle(
            tiny_spec, registry=registry,
            lifecycle_dir=tmp_path / "lifecycle", metrics=MetricsRegistry(),
        )
        assert fresh.active_version("online") == v
        assert [e["event"] for e in fresh.history()] == events_before
        assert fresh.journal.damaged_lines == 0
