"""PredictionService + HTTP front-end: bit-identity, concurrency, errors.

The acceptance bar for the serving layer is that micro-batched
predictions — in-process or over HTTP, alone or under concurrent load —
are *bit-identical* to calling the fitted predictor directly.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from urllib.parse import urlencode

import numpy as np
import pytest

from repro.errors import ScenarioError, ServeError
from repro.obs.metrics import REGISTRY
from repro.serve import PredictionService, PredictRequest
from repro.serve.http import PredictionServer
from tests.helpers.served import ServedSystem


@pytest.fixture(scope="module")
def service(tiny_spec, serve_cache):
    svc = PredictionService(tiny_spec, cache_dir=serve_cache, max_wait_s=0.001)
    svc.warm(("BDT",))
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def direct(service, tiny_spec, tiny_records):
    """Ground truth: the fitted predictor called without any batching."""
    servable = service.registry.get(tiny_spec, "BDT")
    return servable.predict_records(tiny_records)


@pytest.fixture(scope="module")
def server(service):
    # The shared harness fronts the module-scoped service; stop() tears
    # down only the HTTP server, leaving the service to its own fixture.
    with ServedSystem(service=service) as system:
        yield system


def _http(server, method, path, payload=None):
    status, _, body = server.request(method, path, payload=payload)
    return status, body


def _predict(service, records, model="BDT"):
    return service.predict_request(
        PredictRequest(records=records, model=model)
    ).predictions


# -- in-process ----------------------------------------------------------


def test_batched_predictions_bit_identical_to_direct(service, tiny_records, direct):
    batched = _predict(service, tiny_records)
    np.testing.assert_array_equal(batched, direct)


def test_concurrent_clients_get_bit_identical_predictions(
    service, tiny_records, direct
):
    """8 threads of single-job requests: coalesced, still exact."""
    n_threads = 8
    batched_before = REGISTRY.get("repro_batch_requests_total").total()
    out = np.full(len(tiny_records), np.nan)
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def client(worker: int) -> None:
        barrier.wait()
        try:
            for i in range(worker, len(tiny_records), n_threads):
                out[i] = _predict(service, [tiny_records[i]])[0]
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(w,)) for w in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    np.testing.assert_array_equal(out, direct)
    total = REGISTRY.get("repro_batch_requests_total").total() - batched_before
    assert total >= len(tiny_records)


def test_unknown_user_fails_alone_without_poisoning_the_batcher(
    service, tiny_records
):
    bad = {"user": "not-a-user", "nodes": 2, "req_walltime_s": 600}
    with pytest.raises(ServeError, match="unknown user"):
        _predict(service, [bad])
    # The online model backs off instead of rejecting.
    assert _predict(service, [bad], model="online")[0] > 0
    # And the BDT batcher still serves good requests.
    assert np.isfinite(_predict(service, tiny_records[:2])).all()


def test_malformed_records_rejected(service):
    with pytest.raises(ServeError, match="lacks fields"):
        _predict(service, [{"user": "u"}])
    with pytest.raises(ServeError, match="nodes must be >= 1"):
        _predict(service, [{"user": "u", "nodes": 0, "req_walltime_s": 60}])
    with pytest.raises(ServeError, match="must be positive"):
        _predict(service, [{"user": "u", "nodes": 1, "req_walltime_s": 0}])
    with pytest.raises(ServeError, match="must be numeric"):
        _predict(service, [{"user": "u", "nodes": "many", "req_walltime_s": 60}])
    with pytest.raises(ServeError, match="must be a job object"):
        _predict(service, [1, 2])
    with pytest.raises(ServeError, match="at least one record"):
        _predict(service, [])


def test_upper_case_system_overlay_reuses_the_warm_batcher(
    service, tiny_records, direct
):
    _predict(service, tiny_records[:1])
    batchers = dict(service._batchers)
    response = service.predict_request(
        PredictRequest(records=tiny_records[:1], scenario={"system": "EMMY"})
    )
    assert service._batchers == batchers  # no second model, no new batcher
    assert response.dataset_digest == service.scenario.dataset_digest
    assert response.predictions[0] == direct[0]


def test_scenario_overlay_changes_only_named_fields(service, tiny_spec):
    spec = service.resolve_scenario({"max_traces": 7})
    assert spec.max_traces == 7
    assert spec.replace(max_traces=tiny_spec.max_traces) == tiny_spec
    # Legacy horizon_s overlays convert, replacing the base horizon.
    assert service.resolve_scenario({"horizon_s": 86400}).horizon_days == 1.0
    with pytest.raises(ScenarioError, match="unknown scenario fields"):
        service.resolve_scenario({"nodes": 12})


# -- HTTP ----------------------------------------------------------------


def test_http_predict_round_trip_is_bit_identical(server, tiny_records, direct):
    status, answer = _http(
        server, "POST", "/v1/predict", {"model": "BDT", "jobs": tiny_records}
    )
    assert status == 200
    assert answer["n"] == len(tiny_records)
    assert answer["model"] == "BDT"
    assert answer["latency_ms"] >= 0
    # JSON float repr round-trips doubles exactly: still bit-identical.
    np.testing.assert_array_equal(np.asarray(answer["predictions"]), direct)


def test_http_single_job_form(server, tiny_records, direct):
    status, answer = _http(server, "POST", "/v1/predict", {"job": tiny_records[0]})
    assert status == 200
    assert answer["predictions"] == [float(direct[0])]


def test_http_healthz(server):
    status, health = _http(server, "GET", "/v1/healthz")
    assert status == 200
    assert health["status"] == "ok"
    assert health["uptime_s"] >= 0
    assert health["requests"] == health["latency"]["count"] > 0


def test_http_models_endpoint(server, tiny_spec):
    status, stats = _http(server, "GET", "/v1/models")
    assert status == 200
    assert stats["dataset_digest"] == tiny_spec.dataset_digest
    assert any(m["model"] == "BDT" and m["warm"] for m in stats["models"])


def test_http_error_mapping(server, tiny_records):
    assert _http(server, "GET", "/nope")[0] == 404
    assert _http(server, "POST", "/nope", {})[0] == 404
    # Caller mistakes are 400s with a JSON error body.
    for payload in (
        {},  # no jobs
        {"jobs": []},
        {"jobs": "not-a-list"},
        {"jobs": [1, 2]},
        {"model": "XGBoost", "jobs": tiny_records[:1]},
        {"model": ["BDT"], "jobs": tiny_records[:1]},
        {"version": "abc", "jobs": tiny_records[:1]},
        {"jobs": [{"user": "u"}]},
        {"scenario": {"bogus": 1}, "jobs": tiny_records[:1]},
        {"jobs": [{"user": "not-a-user", "nodes": 1, "req_walltime_s": 60}]},
    ):
        status, body = _http(server, "POST", "/v1/predict", payload)
        assert status == 400, payload
        assert "error" in body

    for raw in (b"{not json", b"\xff\xfe{"):  # bad JSON, bad UTF-8
        status, _, body = server.request("POST", "/v1/predict", raw_body=raw)
        assert status == 400, raw
        assert "invalid JSON" in body["error"]
    # A body whose length cannot be read answers 400 and closes.
    status, headers, body = server.request(
        "POST", "/v1/predict", headers={"Content-Length": "abc"}
    )
    assert status == 400 and "Content-Length" in body["error"]
    assert headers["Connection"] == "close"
    # An unparseable scenario query on the bulk endpoint.
    status, _, body = server.request(
        "POST", "/v1/predict/bulk?model=BDT&scenario={oops",
        raw_body=json.dumps(tiny_records[0]).encode(),
    )
    assert status == 400 and "scenario" in body["error"]
    # Scenario overlays that are not an object, are wrong-typed or name
    # an unknown system are caller mistakes on both predict routes.
    bad_overlays = (
        {"seed": "x"},
        {"seed": -1},
        {"num_users": "5"},
        {"max_traces": "many"},
        {"system": "emmy", "horizon_days": "abc"},
        {"horizon_s": "abc"},
        {"system": "nosuch"},
        "nosuch",
        ["emmy"],
    )
    for overlay in bad_overlays:
        status, body = _http(
            server, "POST", "/v1/predict",
            {"scenario": overlay, "jobs": tiny_records[:1]},
        )
        assert status == 400, (overlay, body)
        assert "internal error" not in body["error"]
    for overlay in bad_overlays:
        query = urlencode({"model": "BDT", "scenario": json.dumps(overlay)})
        status, _, body = server.request(
            "POST", "/v1/predict/bulk?" + query,
            raw_body=json.dumps(tiny_records[0]).encode(),
        )
        assert status == 400, (overlay, body)
        assert "internal error" not in body["error"]


@pytest.mark.parametrize("condition", ["closed", "overloaded"])
def test_server_side_conditions_answer_503(
    tiny_spec, serve_cache, tiny_records, condition
):
    # max_queue=0 makes every batched submit find the queue full.
    max_queue = 0 if condition == "overloaded" else 4096
    with PredictionService(
        tiny_spec, cache_dir=serve_cache, max_queue=max_queue
    ) as svc, ServedSystem(service=svc) as system:
        svc.warm(("BDT",))
        if condition == "closed":
            svc.close()
        status, headers, body = system.post(
            "/v1/predict", {"jobs": tiny_records[:1]}
        )
        assert status == 503, body
        assert headers["Retry-After"] == "1"
        assert ("closed" if condition == "closed" else "queue full") in body["error"]
        if condition == "closed":  # the bulk route skips the batcher
            status, headers, _ = system.request(
                "POST", "/v1/predict/bulk?model=BDT",
                raw_body=json.dumps(tiny_records[0]).encode(),
            )
            assert status == 503 and headers["Retry-After"] == "1"


def test_unread_body_does_not_break_keep_alive(server, tiny_records):
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    try:
        body = json.dumps({"jobs": tiny_records[:1]})
        conn.request("POST", "/predict", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 404
        assert "error" in json.loads(response.read())
        conn.request("GET", "/v1/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"
    finally:
        conn.close()


# -- /v1/predict/bulk (NDJSON) -------------------------------------------


def _bulk(server, body: bytes, path="/v1/predict/bulk?model=BDT"):
    return server.request(
        "POST", path, raw_body=body,
        headers={"Content-Type": "application/x-ndjson"}, raw_response=True,
    )


def test_http_bulk_round_trip_is_bit_identical(server, tiny_records, direct):
    body = b"\n".join(json.dumps(r).encode() for r in tiny_records)
    status, headers, data = _bulk(server, body)
    assert status == 200
    assert headers["Content-Type"] == "application/x-ndjson"
    assert headers["X-N"] == str(len(tiny_records))
    assert headers["X-Model"] == "BDT"
    # One repr()-float per line: parsing them back restores exact bits.
    values = np.asarray([float(line) for line in data.split()])
    np.testing.assert_array_equal(values, direct)


def test_http_bulk_tolerates_blank_lines(server, tiny_records, direct):
    body = b"\n\n" + json.dumps(tiny_records[0]).encode() + b"\n\n"
    status, headers, data = _bulk(server, body)
    assert status == 200
    assert headers["X-N"] == "1"
    assert float(data.split()[0]) == float(direct[0])


def test_http_bulk_scenario_overlay_via_query(server, tiny_records):
    overlay = json.dumps({"seed": 4})
    from urllib.parse import quote

    body = json.dumps(tiny_records[0]).encode()
    status, _, _ = _bulk(
        server, body,
        path=f"/v1/predict/bulk?model=BDT&scenario={quote(overlay)}",
    )
    assert status == 200


def test_http_bulk_error_mapping(server, tiny_records):
    # Empty body, malformed line, non-object line: all caller mistakes.
    for body in (b"", b"{not json", b'["a-list-not-an-object"]'):
        status, _, data = _bulk(server, body)
        assert status == 400, body
        assert "error" in json.loads(data)
    # The error names the offending line.
    status, _, data = _bulk(
        server, json.dumps(tiny_records[0]).encode() + b"\n{oops"
    )
    assert status == 400
    assert "line 2" in json.loads(data)["error"]
    # Unknown model maps exactly like /v1/predict.
    body = json.dumps(tiny_records[0]).encode()
    status, _, _ = _bulk(server, body, path="/v1/predict/bulk?model=XGBoost")
    assert status == 400


def test_closed_service_refuses_predicts(tiny_spec, serve_cache):
    svc = PredictionService(tiny_spec, cache_dir=serve_cache)
    record = {"user": "u", "nodes": 1, "req_walltime_s": 60}
    svc.close()
    svc.close()  # idempotent
    with pytest.raises(ServeError):
        _predict(svc, [record], model="online")


# -- /v1/metrics ---------------------------------------------------------


def _scrape(server) -> tuple[str, str]:
    """GET /v1/metrics raw; returns (content_type, body text)."""
    status, headers, body = server.get("/v1/metrics", raw_response=True)
    assert status == 200
    return headers["Content-Type"], body.decode("utf-8")


def test_metrics_endpoint_serves_valid_exposition(server, tiny_records):
    from tests.obs.test_metrics import parse_exposition

    # Ensure at least one prediction has flowed through the service.
    status, _ = _http(server, "POST", "/v1/predict",
                      {"model": "BDT", "jobs": tiny_records[:2]})
    assert status == 200

    content_type, body = _scrape(server)
    assert content_type.startswith("text/plain")
    assert "version=0.0.4" in content_type
    samples = parse_exposition(body)

    # The serving metric families the issue's acceptance bar names.
    assert samples["repro_requests_total"] >= 1
    assert samples['repro_predict_outcomes_total{outcome="ok"}'] >= 1
    assert any(k.startswith("repro_request_latency_seconds_bucket") for k in samples)
    assert any(k.startswith("repro_batch_size_bucket") for k in samples)
    assert any(k.startswith("repro_model_registry_lookups_total") for k in samples)
    # Histogram invariant: the +Inf bucket equals the count.
    assert (samples['repro_request_latency_seconds_bucket{le="+Inf"}']
            == samples["repro_request_latency_seconds_count"])


def test_metrics_counters_are_monotone_across_requests(server, tiny_records):
    from tests.obs.test_metrics import parse_exposition

    before = parse_exposition(_scrape(server)[1])
    for _ in range(3):
        status, _ = _http(server, "POST", "/v1/predict",
                          {"model": "BDT", "jobs": tiny_records[:1]})
        assert status == 200
    after = parse_exposition(_scrape(server)[1])

    assert after["repro_requests_total"] == before["repro_requests_total"] + 3
    assert (after['repro_predict_outcomes_total{outcome="ok"}']
            == before['repro_predict_outcomes_total{outcome="ok"}'] + 3)
    # Every counter/bucket sample is non-decreasing between scrapes.
    for key, value in before.items():
        if "_total" in key or "_bucket" in key or "_count" in key:
            assert after.get(key, 0.0) >= value, key
    # The scrape itself is accounted.
    assert (after['repro_http_requests_total{endpoint="/v1/metrics"}']
            >= before['repro_http_requests_total{endpoint="/v1/metrics"}'] + 1)


# -- one socket write per response ---------------------------------------


class _CountingSocket:
    """An accepted socket that logs the size of every send/sendall."""

    def __init__(self, sock: socket.socket, writes: list[int]) -> None:
        self._sock = sock
        self._writes = writes

    def send(self, data, *args):
        self._writes.append(len(data))
        return self._sock.send(data, *args)

    def sendall(self, data, *args):
        self._writes.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _CountingServer(PredictionServer):
    """A PredictionServer whose connections count their socket writes."""

    def __init__(self, service) -> None:
        self.writes: list[int] = []
        self.accepted = 0
        super().__init__(service)

    def get_request(self):
        sock, address = super().get_request()
        self.accepted += 1
        return _CountingSocket(sock, self.writes), address


@pytest.fixture
def counting_server(service):
    server = _CountingServer(service)
    server.serve_in_background()
    yield server
    # Not server.close(): that would also close the module's service.
    server.shutdown()
    server.server_close()


def _exchange(server, conn, method, path, body=None):
    """One request; returns (status, headers, body, writes it took)."""
    before = len(server.writes)
    conn.request(method, path, body=body)
    response = conn.getresponse()
    data = response.read()
    # The client holds the whole response, so every write is done.
    writes = server.writes[before:]
    return response.status, dict(response.getheaders()), data, writes


def test_each_response_is_one_socket_write(counting_server, tiny_records):
    """Two writes per response stall on the client's delayed ACK."""
    bulk = b"\n".join(json.dumps(r).encode() for r in tiny_records[:8])
    cases = [
        ("POST", "/v1/predict", json.dumps({"job": tiny_records[0]}), 200),
        ("POST", "/v1/predict/bulk?model=BDT", bulk, 200),
        ("GET", "/v1/metrics", None, 200),
        ("GET", "/v1/healthz", None, 200),
        ("GET", "/v1/nope", None, 404),
        ("POST", "/v1/predict", b"{not json", 400),
    ]
    conn = http.client.HTTPConnection("127.0.0.1", counting_server.port, timeout=30)
    try:
        for method, path, body, expected in cases:
            status, _, data, writes = _exchange(
                counting_server, conn, method, path, body
            )
            assert status == expected, (path, data)
            # One write, and it carried the headers and the body.
            assert len(writes) == 1 and writes[0] > len(data), (path, writes)
    finally:
        conn.close()
    assert counting_server.accepted == 1  # every request kept the connection


def _raw_exchange(port: int, request: bytes) -> bytes:
    """Send raw bytes; return everything read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    return b"".join(chunks)


def test_stdlib_errors_answer_json_in_one_write(counting_server):
    """501/400/414 come from BaseHTTPRequestHandler, before any route."""
    requests = REGISTRY.get("repro_http_requests_total")
    responses = REGISTRY.get("repro_http_responses_total")
    before = requests.value(endpoint="other")

    conn = http.client.HTTPConnection("127.0.0.1", counting_server.port, timeout=30)
    try:
        answered = responses.value(endpoint="other", status="501")
        status, headers, data, writes = _exchange(
            counting_server, conn, "PUT", "/v1/predict", b"{}"
        )
    finally:
        conn.close()
    assert status == 501 and "PUT" in json.loads(data)["error"]
    assert headers["Connection"] == "close"
    assert headers["Content-Type"] == "application/json"
    assert len(writes) == 1 and writes[0] > len(data)
    assert responses.value(endpoint="other", status="501") == answered + 1

    # A request line the stdlib cannot parse, and one that is too long.
    for raw, code in (
        (b"NOT A VALID REQUEST HTTP/1.1\r\n\r\n", 400),
        (b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    ):
        answered = responses.value(endpoint="other", status=str(code))
        head, _, body = _raw_exchange(counting_server.port, raw).partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        assert int(status_line.split()[1]) == code
        assert "Connection: close" in lines
        assert json.loads(body)["error"]
        assert responses.value(endpoint="other", status=str(code)) == answered + 1
    # A one-word line reads as HTTP/0.9, whose answer is the bare body.
    data = _raw_exchange(counting_server.port, b"FOO\r\n")
    assert json.loads(data)["error"].startswith("Bad request syntax")
    assert requests.value(endpoint="other") == before + 4
