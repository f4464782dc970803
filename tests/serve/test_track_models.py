"""Serving the heterogeneous track models (GPU / FAIL) end to end.

The registry trains them from the scenario's own dataset through the
track definitions (repro.ml.tracks), the service validates requests
against each servable's feature spec (the GPU track needs ``gpus``),
and a track/scenario mismatch is a caller error — a 400-class
ServeError — never a silent degrade to the CPU mean baseline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve.api import PredictRequest
from repro.serve.registry import SERVE_MODELS, ModelRegistry
from repro.serve.service import PredictionService
from repro.spec import ScenarioSpec

ALEX_TINY = ScenarioSpec("alex", seed=3, num_users=12, horizon_days=6)


@pytest.fixture(scope="module")
def alex_service(tmp_path_factory):
    cache = tmp_path_factory.mktemp("alex-serve-cache")
    service = PredictionService(
        ALEX_TINY, registry=ModelRegistry(cache_dir=cache)
    )
    yield service
    service.close()


def _bulk(records, model):
    return PredictRequest(records=records, model=model, mode="bulk")


@pytest.fixture(scope="module")
def gpu_record():
    return {"user": "u0001", "nodes": 2, "req_walltime_s": 7200, "gpus": 8}


def test_track_models_are_registered():
    assert "GPU" in SERVE_MODELS and "FAIL" in SERVE_MODELS


def test_gpu_predict_serves_board_power(alex_service, gpu_record):
    response = alex_service.predict_request(_bulk([gpu_record], "GPU"))
    assert response.served_by == "GPU"
    assert not response.degraded
    assert response.predictions[0] > 0

def test_gpu_request_without_gpus_field_is_rejected(alex_service):
    with pytest.raises(ServeError, match="gpus"):
        alex_service.predict_request(_bulk(
            [{"user": "u0001", "nodes": 2, "req_walltime_s": 7200}], "GPU"
        ))


def test_fail_predict_returns_probabilities(alex_service, gpu_record):
    response = alex_service.predict_request(_bulk([gpu_record] * 4, "FAIL"))
    assert response.served_by == "FAIL"
    preds = np.asarray(response.predictions, dtype=float)
    assert ((preds >= 0) & (preds <= 1)).all()


def test_track_model_on_cpu_scenario_is_a_caller_error(tmp_path, gpu_record):
    emmy = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=10,
                        horizon_days=2, max_traces=10)
    service = PredictionService(emmy, registry=ModelRegistry(cache_dir=tmp_path))
    try:
        with pytest.raises(ServeError, match="no GPUs"):
            service.predict_request(_bulk([gpu_record], "GPU"))
        with pytest.raises(ServeError, match="failure"):
            service.predict_request(_bulk([gpu_record], "FAIL"))
    finally:
        service.close()


def test_gpu_served_matches_offline_predictor(alex_service, gpu_record):
    """The flat-array serving path answers exactly what the offline
    fitted predictor answers (bit identity, as for BDT)."""
    servable = alex_service.registry.get(ALEX_TINY, "GPU")
    direct = servable.predictor.predict_records([gpu_record])
    served = alex_service.predict_request(_bulk([gpu_record], "GPU")).predictions
    np.testing.assert_array_equal(np.asarray(served), direct)
