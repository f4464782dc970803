"""One reusable way to run the served system: start, drive, observe, stop.

Before this module every consumer of the serving stack — the serve/
faults test suites, the smoke tools and the incident orchestrator —
hand-rolled the same dance: build a
:class:`~repro.serve.http.PredictionServer`, bind an ephemeral port,
spin the accept loop up in the background, speak ``http.client`` JSON
at it, and tear everything down.

:class:`ServedSystem` is the one copy. It fronts one in-process server
on ``127.0.0.1``, bound to an ephemeral port (port 0 cannot collide):

* **start/stop** — builds the server, serves in the background, and
  closes idempotently; usable as a context manager.
* **HTTP client** — :meth:`request` / :meth:`get` / :meth:`post` speak
  JSON (or raw bytes) over a fresh connection, returning
  ``(status, headers, body)``.
* **fault arming** — :meth:`armed` arms a
  :class:`~repro.faults.plan.FaultPlan` (or a prebuilt injector) for a
  ``with`` block, process-wide, restoring the previous state on exit.
* **observation windows** — :meth:`snapshot` / :meth:`delta_since`
  bracket the process-wide metrics registry so a caller reads only the
  deltas its own traffic caused (registry isolation without resetting
  the shared registry).

``tests/helpers/served.py`` wraps this for pytest,
:mod:`repro.incidents.orchestrator` drives every incident scenario
through it — the graded catalog and the chaos soak alike — and
``tools/smoke.py lifecycle`` drives the model lifecycle over it
(docs/INCIDENTS.md).
"""

from __future__ import annotations

import http.client
import json
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import IncidentError
from repro.faults.injector import FaultInjector
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.spec import ScenarioSpec

__all__ = ["ServedSystem"]

_HOST = "127.0.0.1"


class ServedSystem:
    """Start/stop harness around one in-process prediction server.

    Parameters
    ----------
    scenario:
        The :class:`~repro.spec.ScenarioSpec` the service answers for.
        Ignored when a prebuilt ``service`` is passed.
    service:
        An existing :class:`~repro.serve.service.PredictionService` to
        serve instead of building one — the serve-suite tests use this
        to front their custom-registry services. The harness then never
        closes the service itself, only the HTTP server (the caller owns
        the service's lifetime).
    cache_dir / warm / lifecycle / lifecycle_dir:
        Passed through to :func:`repro.serve.create_server`.
    """

    def __init__(
        self,
        scenario: ScenarioSpec = ScenarioSpec(),
        *,
        service=None,
        cache_dir=None,
        warm: tuple[str, ...] = (),
        lifecycle: bool = False,
        lifecycle_dir=None,
    ) -> None:
        self.scenario = scenario
        self.cache_dir = cache_dir
        self.warm = tuple(warm)
        self.lifecycle = lifecycle
        self.lifecycle_dir = lifecycle_dir
        self._service = service
        self._owns_service = service is None
        self._server = None

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServedSystem":
        """Build the server on an ephemeral port and serve in the background."""
        if self._server is not None:
            return self
        if self._owns_service:
            from repro.serve import create_server

            self._server = create_server(
                self.scenario,
                host=_HOST,
                cache_dir=self.cache_dir,
                warm=self.warm,
                lifecycle=self.lifecycle,
                lifecycle_dir=self.lifecycle_dir,
            )
            self._service = self._server.service
        else:
            from repro.serve.http import PredictionServer

            self._server = PredictionServer(self._service, host=_HOST)
        self._server.serve_in_background()
        return self

    def stop(self) -> None:
        """Shut the server (and an owned service) down; idempotent."""
        server, self._server = self._server, None
        if server is None:
            return
        if self._owns_service:
            server.close()
            self._service = None  # closed with the server; rebuilt on restart
        else:
            # A shared service's lifetime belongs to its caller: stop
            # only the HTTP front-end (PredictionServer.close() would
            # close the service too).
            if server._serving:
                server.shutdown()
                server._serving = False
            server.server_close()

    close = stop  # alias: every other server object in the repo says close()

    def __enter__(self) -> "ServedSystem":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing ------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._server is not None

    @property
    def service(self):
        """The served :class:`~repro.serve.service.PredictionService`."""
        return self._service

    @property
    def server(self):
        """The running :class:`PredictionServer`, or ``None``."""
        return self._server

    @property
    def port(self) -> int:
        if self._server is None:
            raise IncidentError("system is not started")
        return self._server.port

    @property
    def address(self) -> str:
        """``host:port`` of the running system."""
        return f"{_HOST}:{self.port}"

    @property
    def base_url(self) -> str:
        return f"http://{self.address}"

    # -- HTTP client -----------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        payload: Mapping | list | None = None,
        raw_body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
        timeout: float = 30.0,
        raw_response: bool = False,
    ) -> tuple[int, dict[str, str], Any]:
        """One HTTP exchange; returns ``(status, headers, body)``.

        ``payload`` is JSON-encoded; ``raw_body`` sends bytes verbatim
        (malformed-payload tests). The response body is JSON-decoded
        when possible, raw bytes otherwise — or always raw bytes with
        ``raw_response=True`` (NDJSON bulk replies, /v1/metrics
        expositions: bodies whose shape, not parse, is under test).
        """
        body = raw_body
        if body is None and payload is not None:
            body = json.dumps(payload).encode()
        send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        conn = http.client.HTTPConnection(_HOST, self.port, timeout=timeout)
        try:
            conn.request(method, path, body=body, headers=send_headers)
            response = conn.getresponse()
            data = response.read()
            resp_headers = dict(response.getheaders())
            status = response.status
        finally:
            conn.close()
        if raw_response:
            return status, resp_headers, data
        try:
            decoded: Any = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            decoded = data
        return status, resp_headers, decoded

    def get(self, path: str, **kwargs) -> tuple[int, dict[str, str], Any]:
        """``request("GET", ...)``."""
        return self.request("GET", path, **kwargs)

    def post(
        self, path: str, payload: Mapping | list | None = None, **kwargs
    ) -> tuple[int, dict[str, str], Any]:
        """``request("POST", ...)``."""
        return self.request("POST", path, payload=payload, **kwargs)

    # -- fault arming ----------------------------------------------------

    @contextmanager
    def armed(
        self, plan: "FaultPlan | FaultInjector"
    ) -> Iterator[FaultInjector]:
        """Arm a plan (or prebuilt injector) process-wide for the block."""
        injector = (
            plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
        )
        with injector:
            yield injector

    # -- observation windows ---------------------------------------------

    def snapshot(self) -> dict[str, dict[tuple[str, ...], float]]:
        """A metrics snapshot to bracket an observation window."""
        return REGISTRY.snapshot()

    def delta_since(
        self, before: Mapping[str, Mapping[tuple[str, ...], float]]
    ) -> dict[str, dict[tuple[str, ...], float]]:
        """Per-series movement since ``before`` (this caller's traffic only)."""
        return MetricsRegistry.delta(before, REGISTRY.snapshot())
