"""The /v1 HTTP surface and the lifecycle admin endpoints.

The server answers only under ``/v1``: the unversioned paths are plain
404s, and no response carries deprecation headers.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServeError
from repro.serve import PredictRequest
from tests.helpers.served import ServedSystem

RECORD = {"user": "user001", "nodes": 2, "req_walltime_s": 600}

#: Pre-/v1 paths the server no longer serves.
UNVERSIONED = ("/healthz", "/models", "/metrics", "/predict", "/predict/bulk")


# -- the request type ------------------------------------------------------


def test_as_predict_request_rejects_unknown_fields(v1_server):
    """An unknown request field or mode is refused, as is a body without jobs.

    (Named for the coercion helper these checks lived in before
    ``PredictRequest`` became the only request form.)
    """
    with pytest.raises(TypeError, match="modle"):
        PredictRequest(records=(RECORD,), modle="BDT")
    with pytest.raises(ServeError, match="unknown predict mode"):
        PredictRequest(records=(RECORD,), mode="streaming")
    status, _, body = v1_server.request(
        "POST", "/v1/predict", payload={"model": "BDT"}
    )
    assert status == 400 and 'request needs "jobs"' in body["error"]


# -- the /v1 surface over HTTP -------------------------------------------


@pytest.fixture(scope="module")
def v1_server(tiny_spec, serve_cache, tmp_path_factory):
    with ServedSystem(
        tiny_spec,
        cache_dir=serve_cache,
        lifecycle_dir=tmp_path_factory.mktemp("v1-lifecycle"),
        warm=("online",),
    ) as system:
        yield system


def _json(server, method, path, payload=None):
    return server.request(method, path, payload=payload)


def test_v1_healthz_and_unversioned_paths_404(v1_server):
    status, headers, body = _json(v1_server, "GET", "/v1/healthz")
    assert status == 200 and body["status"] == "ok"
    assert "Deprecation" not in headers and "Link" not in headers

    for path in UNVERSIONED:
        method = "POST" if path.startswith("/predict") else "GET"
        payload = {"jobs": [RECORD]} if method == "POST" else None
        status, headers, body = _json(v1_server, method, path, payload)
        assert status == 404, path
        assert "no such endpoint" in body["error"]
        assert "Deprecation" not in headers and "Link" not in headers


def test_v1_models_is_the_lineage_view(v1_server):
    status, _, body = _json(v1_server, "GET", "/v1/models")
    assert status == 200
    assert body["dataset_digest"]
    rows = {row["model"]: row for row in body["models"]}
    assert set(rows) >= {"BDT", "KNN", "FLDA", "online"}
    online = rows["online"]
    assert online["active"] == 1 and 1 in online["versions"]
    assert {"candidate", "shadow", "drift", "trained_at_key"} <= set(online)


def test_v1_predict_carries_the_lineage_version(v1_server, tiny_records):
    payload = {"model": "online", "jobs": tiny_records[:4]}
    status, _, body = _json(v1_server, "POST", "/v1/predict", payload)
    assert status == 200
    assert body["version"] == 1 and len(body["predictions"]) == 4

    status, _, pinned = _json(
        v1_server, "POST", "/v1/predict", {**payload, "version": 1}
    )
    assert status == 200 and pinned["predictions"] == body["predictions"]

    status, _, err = _json(
        v1_server, "POST", "/v1/predict", {**payload, "version": 99}
    )
    assert status == 400 and "no stored artifact" in err["error"]


def test_v1_bulk_headers(v1_server, tiny_records):
    body = "\n".join(json.dumps(r) for r in tiny_records[:3]).encode()
    status, headers, raw = v1_server.request(
        "POST", "/v1/predict/bulk?model=online", raw_body=body,
        headers={"Content-Type": "application/x-ndjson"}, raw_response=True,
    )
    lines = raw.decode().splitlines()
    assert status == 200 and len(lines) == 3
    assert headers["X-Version"] == "1" and "Deprecation" not in headers


def test_v1_feedback_and_admin_round_trip(v1_server, feedback_records):
    manager = v1_server.service.lifecycle
    status, _, out = _json(v1_server, "POST", "/v1/feedback",
                           {"jobs": feedback_records[:8]})
    assert status == 200 and out["accepted"] == 8

    status, _, err = _json(v1_server, "POST", "/v1/feedback", {"jobs": []})
    assert status == 400 and "error" in err

    version = manager.create_candidate("online", who="test", why="api")
    status, _, out = _json(
        v1_server, "POST", "/v1/admin/promote",
        {"model": "online", "version": version, "who": "test", "why": "api"},
    )
    assert status == 200 and out["active"] == version

    status, _, hist = _json(v1_server, "GET", "/v1/admin/history?model=online")
    assert status == 200
    events = [e["event"] for e in hist["events"]]
    assert events[-2:] == ["register", "promote"]
    assert hist["events"][-1]["who"] == "test"

    status, _, out = _json(v1_server, "POST", "/v1/admin/rollback",
                           {"model": "online", "who": "test"})
    assert status == 200 and out["active"] == 1

    status, _, models = _json(v1_server, "GET", "/v1/models")
    online = next(r for r in models["models"] if r["model"] == "online")
    assert online["active"] == 1


def test_admin_promote_validation(v1_server):
    status, _, err = _json(v1_server, "POST", "/v1/admin/promote",
                           {"model": "online"})
    assert status == 400 and "version" in err["error"]
    status, _, err = _json(v1_server, "POST", "/v1/admin/promote",
                           {"model": "online", "version": 1})
    assert status == 400  # already active


def test_lifecycle_endpoints_disabled_without_lifecycle(
    tiny_spec, serve_cache
):
    with ServedSystem(tiny_spec, cache_dir=serve_cache) as server:
        status, _, err = _json(server, "POST", "/v1/feedback",
                               {"jobs": [dict(RECORD, power_w=100.0)]})
        assert status == 400 and "lifecycle" in err["error"]
        status, _, err = _json(server, "POST", "/v1/admin/promote",
                               {"model": "online", "version": 2})
        assert status == 400 and "lifecycle" in err["error"]
        status, _, err = _json(server, "GET", "/v1/admin/history")
        assert status == 400 and "lifecycle" in err["error"]
