"""Degraded mode: the service answers from the mean baseline, flagged.

When the registry cannot produce the requested model (the injected
``registry.train`` fault stands in for real training trouble), the
service must keep answering — from :class:`MeanPowerServable`, with
``degraded: true`` in the response and ``/v1/healthz`` — while caller
mistakes (unknown model, malformed records) still fail exactly as in
healthy operation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.faults import FaultPlan, FaultRule, arm
from repro.serve import ModelRegistry, PredictionService, PredictRequest
from tests.helpers.served import ServedSystem


def _train_plan(rate: float = 1.0) -> FaultPlan:
    return FaultPlan(seed=0, rules=(FaultRule("registry.train", rate=rate),))


def _service(tiny_spec) -> PredictionService:
    # In-memory registry: no disk artifacts, so every get must train —
    # which is exactly what the armed fault makes impossible.
    registry = ModelRegistry(use_disk=False)
    return PredictionService(tiny_spec, registry=registry, max_wait_s=0.001)


def _predict(service, records, model="BDT"):
    return service.predict_request(PredictRequest(records=records, model=model))


def _http(server, method, path, payload=None, raw_body=None):
    status, _, body = server.request(method, path, payload=payload,
                                     raw_body=raw_body)
    return status, body


def test_training_fault_degrades_to_mean_baseline_then_recovers(
    tiny_spec, tiny_records
):
    with _service(tiny_spec) as service:
        with arm(_train_plan()) as injector:
            detail = _predict(service, tiny_records[:4])
            assert injector.fires("registry.train") >= 1
        assert detail.degraded is True
        assert detail.served_by == "mean-baseline"
        baseline = service.registry.fallback(tiny_spec)
        np.testing.assert_array_equal(
            detail.predictions, np.full(4, baseline.mean_power_w)
        )
        health = service.health()
        assert health["status"] == "degraded"
        assert health["degraded"] is True and health["n_degraded"] == 1
        # Fault cleared: the next request trains for real and the flag
        # drops, while the lifetime counter keeps the history.
        detail = _predict(service, tiny_records[:4])
        assert detail.degraded is False
        assert detail.served_by == "BDT"
        health = service.health()
        assert health["status"] == "ok" and health["n_degraded"] == 1


def test_warm_failure_is_reported_not_raised(tiny_spec):
    """`serve` must start (degraded) even when warm-up training fails."""
    with _service(tiny_spec) as service:
        with arm(_train_plan()):
            outcome = service.warm(("BDT",))
            assert "injected fault: registry.train" in outcome["BDT"]
            with pytest.raises(ServeError, match="unknown model"):
                service.warm(("XGBoost",))
        assert service.warm(("BDT",)) == {"BDT": "ok"}


def test_caller_mistakes_still_fail_during_degradation(tiny_spec, tiny_records):
    with _service(tiny_spec) as service:
        with arm(_train_plan()):
            # Unknown model is checked before the registry is consulted.
            with pytest.raises(ServeError, match="unknown model"):
                _predict(service, tiny_records[:1], model="XGBoost")
            # Field validation applies to baseline-served requests too.
            with pytest.raises(ServeError, match="lacks fields"):
                _predict(service, [{"user": "u"}])
            # The mean baseline has no frozen vocabulary: any user is
            # served rather than bounced while the service is degraded.
            detail = _predict(
                service, [{"user": "nobody", "nodes": 2, "req_walltime_s": 600}]
            )
            assert detail.degraded is True


def test_http_surface_reports_degradation_and_faults(tiny_spec, tiny_records):
    with _service(tiny_spec) as service, \
            ServedSystem(service=service) as server:
        plan = _train_plan()
        with arm(plan):
            status, body = _http(
                server, "POST", "/v1/predict", {"jobs": tiny_records[:2]}
            )
            assert status == 200
            assert body["degraded"] is True
            assert body["served_by"] == "mean-baseline"
            assert body["n"] == 2

            status, health = _http(server, "GET", "/v1/healthz")
            assert status == 200
            assert health["status"] == "degraded"
            # The armed injector surfaces its schedule state for audits.
            assert health["faults"]["seed"] == plan.seed
            assert health["faults"]["counters"]["registry.train"]["fires"] >= 1

            # Caller mistakes stay 400s while degraded ...
            status, body = _http(
                server, "POST", "/v1/predict",
                {"model": "XGBoost", "jobs": tiny_records[:1]},
            )
            assert status == 400 and "unknown model" in body["error"]
            # ... and a burst of malformed bodies never kills the server.
            for raw in (b"{not json", b"[]", b'{"jobs": "nope"}', b""):
                status, body = _http(server, "POST", "/v1/predict", raw_body=raw)
                assert status == 400, raw
                assert "error" in body

        # Disarmed: trains for real, flag drops, snapshot disappears.
        status, body = _http(
            server, "POST", "/v1/predict", {"jobs": tiny_records[:2]}
        )
        assert status == 200 and body["degraded"] is False
        status, health = _http(server, "GET", "/v1/healthz")
        assert health["status"] == "ok"
        assert "faults" not in health
