"""ServedSystem: lifecycle, HTTP client, fault arming, bind retry.

The harness is the one copy of the start/drive/observe/stop dance every
suite used to hand-roll, so its own edges get pinned here: shared
services must survive ``stop()``, explicit ports that lose a bind race
must retry and fall back (the old flake), and arming must refuse the
forked mode it cannot reach.
"""

from __future__ import annotations

import socket

import pytest

from repro.errors import IncidentError
from repro.faults.injector import FaultInjector, active_injector
from repro.faults.plan import FaultPlan, FaultRule
from tests.helpers.served import ServedSystem, served


def test_lifecycle_and_json_client(tiny_service):
    system = ServedSystem(service=tiny_service)
    assert system.running is False
    with pytest.raises(IncidentError, match="not started"):
        system.port
    system.start()
    try:
        assert system.running and system.port > 0
        assert system.base_url == f"http://127.0.0.1:{system.port}"
        status, headers, health = system.get("/v1/healthz")
        assert status == 200 and health["status"] == "ok"
        assert "application/json" in headers.get("Content-Type", "")
        # raw_response skips the JSON decode for byte-shape consumers.
        status, _, raw = system.get("/v1/healthz", raw_response=True)
        assert status == 200 and isinstance(raw, bytes)
    finally:
        system.stop()
    assert system.running is False
    system.stop()  # idempotent
    system.close()  # alias


def test_stop_leaves_a_shared_service_usable(tiny_service, tiny_spec):
    # Two consecutive harnesses front the same caller-owned service:
    # the first stop() must tear down only the HTTP server.
    for _ in range(2):
        with ServedSystem(service=tiny_service) as system:
            status, _, body = system.post(
                "/v1/predict",
                {"model": "BDT", "jobs": [
                    {"user": "u", "nodes": 1, "req_walltime_s": 60},
                ]},
            )
            # 400 (unknown user) still proves service + server answer.
            assert status in (200, 400)
    assert tiny_service.lineage_stats()["scenario"] == tiny_spec.to_dict()


def test_served_contextmanager_wrapper(tiny_service):
    with served(service=tiny_service) as system:
        assert system.running
        status, _, _ = system.get("/v1/healthz")
        assert status == 200
    assert system.running is False


def test_explicit_port_collision_falls_back_to_ephemeral(tiny_service):
    # Occupy a port, then ask the harness for exactly that port: the
    # retry loop must back off and fall back instead of flaking.
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    taken = blocker.getsockname()[1]
    try:
        with ServedSystem(
            service=tiny_service, port=taken, bind_retries=2
        ) as system:
            assert system.port != taken
            status, _, _ = system.get("/v1/healthz")
            assert status == 200
    finally:
        blocker.close()


def test_strict_port_collision_fails_loudly(tiny_service):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    taken = blocker.getsockname()[1]
    try:
        system = ServedSystem(
            service=tiny_service, port=taken, bind_retries=2, strict_port=True
        )
        with pytest.raises(IncidentError, match="could not bind"):
            system.start()
    finally:
        blocker.close()


def test_constructor_validation(tiny_service):
    with pytest.raises(IncidentError, match="workers"):
        ServedSystem(workers=0)
    with pytest.raises(IncidentError, match="cannot be forked"):
        ServedSystem(service=tiny_service, workers=2)


def test_armed_wraps_plans_and_restores_state(tiny_service):
    plan = FaultPlan(seed=9, rules=(FaultRule("cache.read", rate=1.0),))
    with ServedSystem(service=tiny_service) as system:
        assert active_injector() is None
        with system.armed(plan) as injector:
            assert active_injector() is injector
            assert injector.plan == plan
        assert active_injector() is None
        # A prebuilt injector passes through untouched.
        prebuilt = FaultInjector(plan)
        with system.armed(prebuilt) as injector:
            assert injector is prebuilt


def test_armed_refuses_forked_workers():
    system = ServedSystem("emmy", workers=2)  # never started: cheap
    with pytest.raises(IncidentError, match="forked"):
        with system.armed(FaultPlan(seed=1)):
            pass


def test_snapshot_delta_brackets_own_traffic(tiny_service):
    with ServedSystem(service=tiny_service) as system:
        before = system.snapshot()
        for _ in range(3):
            status, _, _ = system.get("/v1/healthz")
            assert status == 200
        delta = system.delta_since(before)
        moved = delta.get("repro_http_requests_total", {})
        assert sum(v for k, v in moved.items() if "/v1/healthz" in k) >= 3
