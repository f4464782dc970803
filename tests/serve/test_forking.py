"""Pre-forked multi-process front-end: fan-in identity, metrics, healing.

The pool's contract extends the single-process one: whichever
``SO_REUSEPORT`` worker the kernel routes a connection to, the
prediction bits must be exactly the ones a lone in-process
:class:`~repro.serve.PredictionService` produces, ``/v1/metrics`` on any
worker must expose the whole fleet, and a killed worker must be
replaced by the supervisor without the survivors dropping requests.

These tests spawn real worker processes (multiprocessing *spawn*), so
the whole module shares one small pool.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import time

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import PredictionService, PredictRequest
from repro.serve.forking import _SNAPSHOT_INTERVAL_S, ForkingServer, WorkerConfig

pytestmark = pytest.mark.skipif(
    not hasattr(__import__("socket"), "SO_REUSEPORT"),
    reason="platform lacks SO_REUSEPORT",
)


@pytest.fixture(scope="module")
def pool(tiny_spec, serve_cache):
    with ForkingServer(
        tiny_spec, workers=2, cache_dir=serve_cache, max_wait_ms=0.5
    ) as srv:
        yield srv


def _request(pool, method, path, body=None, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", pool.port, timeout=30)
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    data = response.read()
    conn.close()
    return response.status, dict(response.getheaders()), data


def _predict_on_every_worker(pool, records, attempts=40):
    """Collect one /v1/predict response per worker id (kernel sharding is
    per-connection, so fresh connections eventually land on each)."""
    body = json.dumps({"model": "BDT", "jobs": records}).encode()
    by_worker: dict[str, list[float]] = {}
    for _ in range(attempts):
        status, headers, data = _request(
            pool, "POST", "/v1/predict", body,
            {"Content-Type": "application/json"},
        )
        assert status == 200, data
        worker = headers.get("X-Worker")
        by_worker.setdefault(worker, [float(p) for p in
                                      json.loads(data)["predictions"]])
        if len(by_worker) >= pool.workers:
            break
    return by_worker


def test_pool_boots_all_workers(pool):
    stats = pool.stats()
    assert stats["alive"] == 2
    assert stats["restarts"] == 0
    assert stats["address"].endswith(str(pool.port))


def test_every_worker_bit_identical_to_single_process(
    pool, tiny_spec, serve_cache, tiny_records
):
    records = tiny_records[:12]
    service = PredictionService(tiny_spec, cache_dir=serve_cache)
    try:
        expected = service.predict_request(
            PredictRequest(records=records, model="BDT")
        ).predictions
    finally:
        service.close()

    by_worker = _predict_on_every_worker(pool, records)
    assert len(by_worker) == pool.workers, (
        f"only workers {sorted(by_worker)} answered"
    )
    for worker, values in by_worker.items():
        np.testing.assert_array_equal(
            np.asarray(values), expected,
            err_msg=f"worker {worker} diverged from single-process bits",
        )


def test_bulk_endpoint_identical_across_workers(pool, tiny_records):
    records = tiny_records[:8]
    body = b"\n".join(json.dumps(r).encode() for r in records)
    seen: dict[str, list[float]] = {}
    for _ in range(40):
        status, headers, data = _request(
            pool, "POST", "/v1/predict/bulk?model=BDT", body,
            {"Content-Type": "application/x-ndjson"},
        )
        assert status == 200, data
        assert headers.get("X-N") == str(len(records))
        seen.setdefault(headers.get("X-Worker"),
                        [float(line) for line in data.split()])
        if len(seen) >= pool.workers:
            break
    assert len(seen) >= 2
    baseline = next(iter(seen.values()))
    for worker, values in seen.items():
        assert values == baseline, f"worker {worker} bulk bits diverged"


def _fleet_requests(pool) -> float:
    """The fleet-merged ``repro_requests_total`` on ``/v1/metrics`` (0
    until a worker has counted a request)."""
    status, _, data = _request(pool, "GET", "/v1/metrics")
    assert status == 200
    line = next((l for l in data.decode().splitlines()
                 if l.startswith("repro_requests_total")), "0")
    return float(line.split()[-1])


def test_metrics_aggregated_across_workers(pool, tiny_records):
    # Touch every worker so each has non-zero request counters...
    _predict_on_every_worker(pool, tiny_records[:2])
    time.sleep(1.2)  # ...and let the snapshot writers publish them.
    total = _fleet_requests(pool)
    # The fleet total must exceed what any single worker served: the
    # fan-in test alone spread >= pool.workers requests across workers.
    assert total >= pool.workers


def test_healthz_reports_worker_id(pool):
    status, _, data = _request(pool, "GET", "/v1/healthz")
    assert status == 200
    assert json.loads(data)["worker"] in range(pool.workers)


def _settled_fleet_requests(pool, timeout: float = 10.0) -> float:
    """The fleet total once every worker's snapshot has caught up: two
    reads more than one snapshot interval apart agree."""
    deadline = time.monotonic() + timeout
    last = _fleet_requests(pool)
    while time.monotonic() < deadline:
        time.sleep(1.5 * _SNAPSHOT_INTERVAL_S)
        now = _fleet_requests(pool)
        if now == last:
            return now
        last = now
    pytest.fail("fleet request counter never settled")


def test_concurrent_keep_alive_traffic_matches_oracle(
    pool, tiny_spec, serve_cache, tiny_records
):
    """Four keep-alive connections alternate one-job and 8-row bulk
    requests: every value is the offline oracle's, bit for bit, and the
    fleet counter grows by exactly the requests sent."""
    from concurrent.futures import ThreadPoolExecutor

    from repro.ml import default_models, fit_predictor
    from repro.pipeline import build_dataset

    jobs = build_dataset(**tiny_spec.dataset_kwargs(), cache_dir=serve_cache).jobs
    records = tiny_records[:8]
    oracle = fit_predictor(jobs, default_models()["BDT"], model_name="BDT")
    expected = [float(v) for v in oracle.predict_records(records)]
    n_clients, per_client = 4, 20
    start = _settled_fleet_requests(pool)

    def client(c: int) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", pool.port, timeout=30)
        local_ports = set()
        try:
            for i in range(per_client):
                k = (c + i) % len(records)
                if i % 2 == 0:
                    path, ctype = "/v1/predict", "application/json"
                    body = json.dumps({"model": "BDT", "jobs": [records[k]]})
                    want = [expected[k]]
                else:
                    path, ctype = "/v1/predict/bulk?model=BDT", "application/x-ndjson"
                    rows = records[k:] + records[:k]
                    body = "\n".join(json.dumps(r) for r in rows)
                    want = expected[k:] + expected[:k]
                conn.request("POST", path, body=body, headers={"Content-Type": ctype})
                response = conn.getresponse()
                data = response.read()
                assert response.status == 200, data
                if i % 2 == 0:
                    got = json.loads(data)["predictions"]
                else:
                    got = [float(line) for line in data.split()]
                assert got == want, f"client {c} request {i} diverged from the oracle"
                assert conn.sock is not None, "server closed a keep-alive connection"
                local_ports.add(conn.sock.getsockname()[1])
        finally:
            conn.close()
        assert len(local_ports) == 1, "client reconnected"

    with ThreadPoolExecutor(n_clients) as ex:
        list(ex.map(client, range(n_clients)))  # re-raises a client's failure
    sent = n_clients * per_client
    deadline = time.monotonic() + 10
    grown = _fleet_requests(pool) - start
    while grown < sent and time.monotonic() < deadline:
        time.sleep(0.1)
        grown = _fleet_requests(pool) - start
    assert grown == sent


def test_supervisor_replaces_killed_worker(pool, tiny_records):
    victim_pid = pool.stats()["pids"][0]
    os.kill(victim_pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        stats = pool.stats()
        if stats["alive"] == pool.workers and stats["pids"][0] != victim_pid:
            break
        time.sleep(0.2)
    else:
        pytest.fail("supervisor did not replace the killed worker")
    assert pool.restarts >= 1
    # The healed pool still serves from every worker, bit-identically —
    # keep probing while the replacement warms its model and binds.
    deadline = time.monotonic() + 60
    by_worker: dict = {}
    while time.monotonic() < deadline and len(by_worker) < pool.workers:
        by_worker = _predict_on_every_worker(pool, tiny_records[:4])
        if len(by_worker) < pool.workers:
            time.sleep(0.5)
    values = list(by_worker.values())
    assert len(values) == pool.workers
    assert all(v == values[0] for v in values)


def test_worker_config_round_trips_scenario(tiny_spec):
    cfg = WorkerConfig(
        scenario=tiny_spec.to_dict(), host="127.0.0.1", port=0,
        worker_id=0, metrics_dir="/tmp/x",
    )
    assert cfg.spec() == tiny_spec


def test_pool_rejects_zero_workers(tiny_spec):
    with pytest.raises(ServeError):
        ForkingServer(tiny_spec, workers=0)


def test_pool_serves_around_a_model_it_cannot_warm(tiny_spec, serve_cache, tiny_records):
    """GPU cannot be trained on emmy: the pool starts anyway, as the
    in-process server does, serves BDT undegraded and answers GPU 400."""
    with ForkingServer(
        tiny_spec, workers=1, cache_dir=serve_cache, warm=("BDT", "GPU")
    ) as pool:
        for model, want in (("BDT", 200), ("GPU", 400)):
            body = json.dumps({"model": model, "jobs": tiny_records[:2]}).encode()
            status, _, data = _request(
                pool, "POST", "/v1/predict", body,
                {"Content-Type": "application/json"},
            )
            assert status == want, data
            if model == "BDT":
                assert json.loads(data)["degraded"] is False
