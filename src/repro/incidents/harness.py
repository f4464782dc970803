"""One reusable way to run the served system: start, drive, observe, stop.

Before this module every consumer of the serving stack — the serve/
faults test suites, the chaos soak, the smoke tools, and now the
incident orchestrator — hand-rolled the same dance: build a
:class:`~repro.serve.http.PredictionServer` (or a
:class:`~repro.serve.forking.ForkingServer` pool), bind an ephemeral
port, spin the accept loop up in the background, speak
``http.client`` JSON at it, and tear everything down. Each copy had its
own bugs; the recurring one was the port-collision flake (an explicit
port raced another process between pick and bind, and the run died on
``EADDRINUSE`` instead of retrying).

:class:`ServedSystem` is the one copy:

* **start/stop** — builds the server (in-process threads, or a forked
  SO_REUSEPORT pool with ``workers > 1``), serves in the background,
  and closes idempotently; usable as a context manager.
* **bind retry** — an explicit port that loses a bind race is retried
  with backoff, then falls back to an ephemeral port unless pinned
  (``strict_port=True``).
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

``tests/helpers/served.py`` wraps this for pytest, and
:mod:`repro.incidents.orchestrator` drives entire graded incident
scenarios through it (docs/INCIDENTS.md).
"""

from __future__ import annotations

import http.client
import json
import time
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.errors import IncidentError
from repro.faults.injector import FaultInjector
from repro.obs.metrics import REGISTRY, MetricsRegistry

__all__ = ["ServedSystem"]


class ServedSystem:
    """Start/stop harness around one served prediction system.

    Parameters
    ----------
    scenario:
        The :class:`~repro.spec.ScenarioSpec` (or system name) the
        service answers for. Ignored when a prebuilt ``service`` is
        passed.
    service:
        An existing :class:`~repro.serve.service.PredictionService` to
        serve instead of building one — the serve-suite tests use this
        to front their custom-registry services. The harness then never
        closes the service itself, only the HTTP server (the caller owns
        the service's lifetime).
    workers:
        ``1`` (default) serves in-process on a ``ThreadingHTTPServer``;
        ``> 1`` runs the pre-forked SO_REUSEPORT pool
        (:class:`~repro.serve.forking.ForkingServer`). Forked workers
        are separate processes: :attr:`service` is ``None`` and
        process-wide fault arming does not reach them.
    port:
        ``0`` binds an ephemeral port (the default, collision-free).
        An explicit port is retried ``bind_retries`` times on
        ``EADDRINUSE``-style races, then falls back to an ephemeral
        port unless ``strict_port=True``.
    warm / cache_dir / registry / max_batch / max_wait_ms / lifecycle /
    lifecycle_dir / verbose:
        Passed through to :func:`repro.serve.create_server` (or the
        forking pool).
    """

    def __init__(
        self,
        scenario: Any = "emmy",
        *,
        service=None,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        warm: tuple[str, ...] = (),
        cache_dir=None,
        registry=None,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        lifecycle: bool = False,
        lifecycle_dir=None,
        verbose: bool = False,
        bind_retries: int = 5,
        strict_port: bool = False,
        metrics: MetricsRegistry = REGISTRY,
    ) -> None:
        if workers < 1:
            raise IncidentError("workers must be >= 1")
        if workers > 1 and service is not None:
            raise IncidentError("a prebuilt service cannot be forked")
        self.scenario = scenario
        self.workers = workers
        self.host = host
        self.requested_port = port
        self.warm = tuple(warm)
        self.cache_dir = cache_dir
        self.registry = registry
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.lifecycle = lifecycle
        self.lifecycle_dir = lifecycle_dir
        self.verbose = verbose
        self.bind_retries = bind_retries
        self.strict_port = strict_port
        self.metrics = metrics
        self._service = service
        self._owns_service = service is None
        self._server = None
        self._pool = None
        self._port: int | None = None
        self._started = False

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "ServedSystem":
        """Build the server (with bind retry) and serve in the background."""
        if self._started:
            return self
        if self.workers > 1:
            self._start_pool()
        else:
            self._start_inprocess()
        self._started = True
        return self

    def _build(self, port: int):
        if self._service is not None:
            from repro.serve.http import PredictionServer

            return PredictionServer(
                self._service, host=self.host, port=port, verbose=self.verbose
            )
        from repro.serve import create_server

        return create_server(
            self.scenario,
            host=self.host,
            port=port,
            cache_dir=self.cache_dir,
            registry=self.registry,
            max_batch=self.max_batch,
            max_wait_ms=self.max_wait_ms,
            warm=self.warm,
            verbose=self.verbose,
            lifecycle=self.lifecycle,
            lifecycle_dir=self.lifecycle_dir,
        )

    def _bind_attempts(self) -> Iterator[int]:
        """Ports to try, in order: the request, retries, ephemeral fallback."""
        attempts = 1 if self.requested_port == 0 else max(1, self.bind_retries)
        for _ in range(attempts):
            yield self.requested_port
        if self.requested_port != 0 and not self.strict_port:
            yield 0

    def _start_inprocess(self) -> None:
        last: OSError | None = None
        for i, port in enumerate(self._bind_attempts()):
            try:
                self._server = self._build(port)
                break
            except OSError as exc:
                # Lost a bind race (EADDRINUSE & friends): back off and
                # retry instead of flaking the whole run.
                last = exc
                time.sleep(min(0.05 * (i + 1), 0.5))
        else:
            raise IncidentError(
                f"could not bind {self.host}:{self.requested_port} "
                f"after {self.bind_retries} attempt(s): {last}"
            ) from last
        self._service = self._server.service
        self._port = self._server.port
        self._server.serve_in_background()

    def _start_pool(self) -> None:
        from repro.serve.forking import ForkingServer

        last: OSError | None = None
        for i, port in enumerate(self._bind_attempts()):
            pool = ForkingServer(
                self.scenario,
                workers=self.workers,
                host=self.host,
                port=port,
                cache_dir=self.cache_dir,
                max_batch=self.max_batch,
                max_wait_ms=self.max_wait_ms,
                warm=self.warm,
                lifecycle=self.lifecycle,
                lifecycle_dir=self.lifecycle_dir,
            )
            try:
                pool.start()
                self._pool = pool
                break
            except OSError as exc:
                last = exc
                pool.close()
                time.sleep(min(0.05 * (i + 1), 0.5))
        else:
            raise IncidentError(
                f"could not bind the worker pool on {self.host}:"
                f"{self.requested_port}: {last}"
            ) from last
        self._port = int(self._pool.address.rsplit(":", 1)[1])

    def stop(self) -> None:
        """Shut the server (and an owned service) down; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        if self._server is not None:
            if self._owns_service:
                self._server.close()
                self._service = None  # closed with the server; rebuilt on restart
            else:
                # A shared service's lifetime belongs to its caller: stop
                # only the HTTP front-end (PredictionServer.close() would
                # close the service too).
                if self._server._serving:
                    self._server.shutdown()
                    self._server._serving = False
                self._server.server_close()
            self._server = None
        self._started = False

    close = stop  # alias: every other server object in the repo says close()

    def __enter__(self) -> "ServedSystem":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- addressing ------------------------------------------------------

    @property
    def running(self) -> bool:
        """True between :meth:`start` and :meth:`stop`."""
        return self._started

    @property
    def service(self):
        """The in-process service, or ``None`` in forked mode."""
        return self._service

    @property
    def server(self):
        """The in-process :class:`PredictionServer`, or ``None`` (forked)."""
        return self._server

    @property
    def port(self) -> int:
        if self._port is None:
            raise IncidentError("system is not started")
        return self._port

    @property
    def address(self) -> str:
        """``host:port`` of the running system."""
        return f"{self.host}:{self.port}"

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
        conn = http.client.HTTPConnection(self.host, self.port, timeout=timeout)
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
        """Arm a plan (or prebuilt injector) process-wide for the block.

        Forked workers are separate processes the in-process injector
        cannot reach, so arming a pool-backed system is refused loudly
        rather than silently observing nothing.
        """
        if self.workers > 1:
            raise IncidentError(
                "cannot arm an in-process fault plan against forked "
                "workers; run the system with workers=1"
            )
        injector = (
            plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
        )
        with injector:
            yield injector

    # -- observation windows ---------------------------------------------

    def snapshot(self) -> dict[str, dict[tuple[str, ...], float]]:
        """A metrics snapshot to bracket an observation window."""
        return self.metrics.snapshot()

    def delta_since(
        self, before: Mapping[str, Mapping[tuple[str, ...], float]]
    ) -> dict[str, dict[tuple[str, ...], float]]:
        """Per-series movement since ``before`` (this caller's traffic only)."""
        return MetricsRegistry.delta(before, self.metrics.snapshot())
