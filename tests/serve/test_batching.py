"""MicroBatcher semantics: coalescing, ordering, errors, lifecycle.

All tests here drive the batcher with synthetic predict functions so the
batch-formation behavior is deterministic: the worker is parked inside a
blocked first call while the test shapes the backlog, then released.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServeError, ServiceClosed
from repro.serve import MicroBatcher


def _blocking_predict(calls, release, started):
    """predict_fn that blocks its first call until ``release`` is set."""

    def predict(records):
        calls.append(len(records))
        if len(calls) == 1:
            started.set()
            release.wait(5)
        return [float(r["x"]) for r in records]

    return predict


def test_single_prediction_round_trips():
    with MicroBatcher(lambda rs: [r["x"] * 2 for r in rs], max_wait_s=0) as b:
        assert b.predict({"x": 2.5}) == 5.0


def test_results_follow_request_order():
    with MicroBatcher(lambda rs: [r["x"] for r in rs], max_wait_s=0.01) as b:
        records = [{"x": float(i)} for i in range(50)]
        assert b.predict_many(records) == [float(i) for i in range(50)]


def test_backlog_coalesces_into_one_batch():
    calls, release, started = [], threading.Event(), threading.Event()
    with MicroBatcher(
        _blocking_predict(calls, release, started), max_batch=8, max_wait_s=0
    ) as b:
        first = b.submit({"x": 0})
        assert started.wait(5)
        backlog = [b.submit({"x": i}) for i in range(1, 4)]
        release.set()
        assert first.result(5) == 0.0
        assert [f.result(5) for f in backlog] == [1.0, 2.0, 3.0]
    # The three backlogged records were drained as a single batch even
    # with max_wait_s=0 — adaptive batching under load.
    assert calls == [1, 3]


def test_max_batch_caps_every_call():
    calls, release, started = [], threading.Event(), threading.Event()
    with MicroBatcher(
        _blocking_predict(calls, release, started), max_batch=4, max_wait_s=0
    ) as b:
        futures = [b.submit({"x": i}) for i in range(11)]
        assert started.wait(5)
        release.set()
        assert [f.result(5) for f in futures] == [float(i) for i in range(11)]
    assert max(calls) <= 4 and sum(calls) == 11


def test_predict_error_reaches_every_waiter_and_batcher_survives():
    def predict(records):
        if any(r.get("bad") for r in records):
            raise ValueError("boom")
        return [r["x"] for r in records]

    with MicroBatcher(predict, max_wait_s=0) as b:
        with pytest.raises(ValueError, match="boom"):
            b.predict({"bad": True})
        # The worker outlives the failed batch.
        assert b.predict({"x": 7.0}) == 7.0


def test_wrong_length_result_is_a_serve_error():
    calls, release, started = [], threading.Event(), threading.Event()

    def predict(records):
        calls.append(len(records))
        if len(calls) == 1:
            started.set()
            release.wait(5)
            return [0.0] * len(records)
        return [0.0]  # deliberately short for the 2-record batch below

    with MicroBatcher(predict, max_batch=8, max_wait_s=0) as b:
        first = b.submit({"x": 0})
        assert started.wait(5)
        pair = [b.submit({"x": i}) for i in (1, 2)]
        release.set()
        assert first.result(5) == 0.0
        for future in pair:
            with pytest.raises(ServeError, match="returned 1 results"):
                future.result(5)
    assert calls == [1, 2]


def test_full_queue_rejects_instead_of_queueing_forever():
    release, started = threading.Event(), threading.Event()

    def predict(records):
        started.set()
        release.wait(5)
        return [0.0] * len(records)

    b = MicroBatcher(predict, max_batch=1, max_wait_s=0, max_queue=2)
    try:
        inflight = b.submit({"x": 0})
        assert started.wait(5)  # worker holds this one; queue is empty
        queued = [b.submit({"x": i}) for i in (1, 2)]
        with pytest.raises(ServeError, match="queue full"):
            b.submit({"x": 3})
        release.set()
        assert inflight.result(5) == 0.0
        assert [f.result(5) for f in queued] == [0.0, 0.0]
    finally:
        release.set()
        b.close()


def test_close_fails_queued_futures_promptly_even_with_a_wedged_worker():
    """Shutdown-race regression: queued futures must never hang.

    The worker is wedged inside a predict call, so the close's join times
    out — everything still queued has to fail with ServiceClosed right
    away instead of waiting out the client timeout.
    """
    release, started = threading.Event(), threading.Event()

    def predict(records):
        started.set()
        release.wait(10)
        return [r["x"] for r in records]

    b = MicroBatcher(predict, max_batch=1, max_wait_s=0)
    try:
        inflight = b.submit({"x": 0.0})
        assert started.wait(5)
        queued = [b.submit({"x": float(i)}) for i in (1, 2, 3)]
        t0 = time.monotonic()
        b.close(timeout=0.2)
        assert time.monotonic() - t0 < 2.0
        for future in queued:
            with pytest.raises(ServiceClosed):
                future.result(timeout=1)
        with pytest.raises(ServiceClosed):
            b.submit({"x": 9.0})
        # Un-wedge the worker: the in-flight request still completes,
        # and the worker sees the shutdown and exits instead of leaking.
        release.set()
        assert inflight.result(5) == 0.0
        b._thread.join(5)
        assert not b.alive
    finally:
        release.set()


def test_submit_after_close_raises():
    b = MicroBatcher(lambda rs: [0.0] * len(rs))
    b.close()
    b.close()  # idempotent
    with pytest.raises(ServeError, match="closed"):
        b.submit({"x": 1})


def test_knob_validation():
    with pytest.raises(ServeError):
        MicroBatcher(lambda rs: rs, max_batch=0)
    with pytest.raises(ServeError):
        MicroBatcher(lambda rs: rs, max_wait_s=-1.0)


def test_idle_batcher_does_not_spin():
    """An idle worker must sleep in its condition wait, not poll.

    The old implementation polled a queue with a short timeout, burning
    CPU while idle; the condition-variable rewrite blocks outright. A
    spinning worker would charge most of the 0.4 s idle window to
    process CPU time — a sleeping one charges (almost) none.
    """
    with MicroBatcher(lambda rs: [0.0] * len(rs), max_wait_s=0.002) as b:
        b.predict({"x": 1})  # worker fully started and back to idle
        cpu0 = time.process_time()
        time.sleep(0.4)
        idle_cpu = time.process_time() - cpu0
    assert idle_cpu < 0.1, f"idle batcher burned {idle_cpu:.3f}s CPU"


def test_wakeup_latency_is_prompt_after_idle():
    """A request arriving after a long idle stretch is served at once
    (the submit notifies the condition; no poll interval to wait out)."""
    with MicroBatcher(lambda rs: [r["x"] for r in rs], max_wait_s=0) as b:
        b.predict({"x": 0.0})
        time.sleep(0.3)
        t0 = time.perf_counter()
        assert b.predict({"x": 7.0}) == 7.0
        assert time.perf_counter() - t0 < 0.2
