"""Stdlib HTTP/JSON front-end for the prediction service.

A :class:`~http.server.ThreadingHTTPServer` whose handler threads feed
the shared :class:`~repro.serve.service.PredictionService` — so N
concurrent HTTP clients become N producer threads whose single-job
requests coalesce in the micro-batcher. No third-party web framework.
With ``reuse_port=True`` several such servers (one per worker process)
bind the same port and the kernel shards accepted connections across
them — see :mod:`repro.serve.forking`.

The HTTP surface lives under ``/v1/`` (see docs/API.md and
docs/SERVICE.md for payloads); :data:`ROUTES` is the whole table:

* ``GET /v1/healthz`` — liveness + request counters + latency snapshot
  (+ ``worker`` id under the forked front-end);
* ``GET /v1/models``  — per-model **lineage**: active version,
  registered versions, shadow candidate + paired-eval evidence, drift
  latch (docs/LIFECYCLE.md);
* ``GET /v1/metrics`` — Prometheus text exposition; process-local by
  default, fleet-aggregated across workers when the server was given a
  ``metrics_dir`` of peer snapshots (docs/OBSERVABILITY.md);
* ``POST /v1/predict`` — ``{"model": "BDT", "jobs": [{"user": ...,
  "nodes": ..., "req_walltime_s": ...}, ...]}`` (or a single ``"job"``)
  with optional ``"scenario"`` overlay and ``"version"`` pin; responds
  with predictions in request order plus per-request latency;
* ``POST /v1/predict/bulk`` — persistent-connection NDJSON bulk mode:
  one job object per body line, one bare-float prediction per response
  line, answered by one vectorized predict (no micro-batcher);
* ``POST /v1/feedback`` — observed job outcomes
  (``{"jobs": [{..., "power_w": ...}]}``) into the lifecycle layer;
* ``POST /v1/admin/promote`` / ``POST /v1/admin/rollback`` — flip the
  active version (journaled, with who/why + shadow evidence);
* ``GET /v1/admin/history`` — the audit journal.

Any other GET or POST answers 404 with a JSON error. Every
request body is read in full before routing, so an early answer never
leaves unread bytes on a keep-alive connection; a body whose
``Content-Length`` is missing, malformed or over 8 MiB cannot be
skipped, so it gets a 400 and the connection is closed.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping
from urllib.parse import parse_qs

from repro.errors import ReproError, ScenarioError, ServeError, ValidationError
from repro.faults.injector import active_injector
from repro.obs.metrics import REGISTRY, render_merged
from repro.serve.api import PredictRequest
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService

__all__ = ["PredictionServer", "create_server"]

_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Request errors that map to HTTP 400 (caller's fault, not the server's).
_BAD_REQUEST_ERRORS = (ServeError, ScenarioError, ValidationError)

#: The Prometheus text exposition content type (/v1/metrics responses).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: The NDJSON content type the bulk endpoint speaks, both directions.
NDJSON_CONTENT_TYPE = "application/x-ndjson"

_HTTP_REQUESTS = REGISTRY.counter(
    "repro_http_requests_total",
    "HTTP requests received, by endpoint (unknown paths count as 'other').",
    labelnames=("endpoint",),
)
_HTTP_RESPONSES = REGISTRY.counter(
    "repro_http_responses_total",
    "HTTP responses sent, by endpoint and status code.",
    labelnames=("endpoint", "status"),
)


def _endpoint_label(path: str) -> str:
    """Bounded-cardinality endpoint label for the HTTP counters."""
    path = path.partition("?")[0]
    return path if path in _PATHS else "other"


def _float_repr(value: float) -> str:
    """Shortest round-tripping decimal form of one prediction.

    ``repr`` floats parse back bit-identically (and are valid JSON for
    finite values), so NDJSON response lines carry exact predictions
    without the dict/format overhead of ``json.dumps``.
    """
    return repr(float(value))


def _json_object(body: bytes) -> Mapping[str, Any]:
    """Decode a JSON request body that must be an object."""
    if not body:
        raise ServeError("request body required")
    try:
        payload = json.loads(body)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ServeError(f"invalid JSON body: {exc}") from None
    if not isinstance(payload, Mapping):
        raise ServeError("request body must be a JSON object")
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Reads each request's body, then dispatches through :data:`ROUTES`.

    A route handler takes ``(query, body)`` and returns either a JSON
    payload or a ``(body, content_type[, headers])`` tuple; it raises to
    answer with an error, mapped in one place by :meth:`_dispatch`.
    """

    server: "PredictionServer"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler API)
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch()

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    # -- plumbing --------------------------------------------------------

    def _dispatch(self) -> None:
        path, _, query = self.path.partition("?")
        _HTTP_REQUESTS.inc(endpoint=_endpoint_label(path))
        self._t0 = perf_counter()
        try:
            body = self._read_body()
        except ServeError as exc:
            # The body's extent is unknown, so the connection cannot be
            # reused: answer and close.
            self._send_json(400, {"error": str(exc)}, {"Connection": "close"})
            return
        route = ROUTES.get((self.command, path))
        if route is None:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})
            return
        try:
            result = route(self, query, body)
        except _BAD_REQUEST_ERRORS as exc:
            self._send_json(400, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})
        except Exception as exc:  # a handler thread must never die silently
            self._send_json(500, {"error": f"internal error: {exc}"})
        else:
            if isinstance(result, tuple):
                self._send_body(200, *result)
            else:
                self._send_json(200, result)

    def _read_body(self) -> bytes:
        """The whole request body (empty for a GET without one)."""
        raw = self.headers.get("Content-Length")
        if raw is None:
            if self.command == "GET":
                return b""
            raise ServeError("Content-Length required")
        try:
            length = int(raw)
        except ValueError:
            raise ServeError(f"invalid Content-Length {raw!r}") from None
        if not 0 <= length <= _MAX_BODY_BYTES:
            raise ServeError(
                f"Content-Length {length} outside 0..{_MAX_BODY_BYTES}"
            )
        return self.rfile.read(length)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        _HTTP_RESPONSES.inc(endpoint=_endpoint_label(self.path), status=status)
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.server.worker_id is not None:
            self.send_header("X-Worker", str(self.server.worker_id))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        headers: Mapping[str, str] | None = None,
    ) -> None:
        self._send_body(
            status, json.dumps(payload).encode("utf-8"), "application/json",
            headers,
        )

    def _with_worker(self, payload: dict[str, Any]) -> dict[str, Any]:
        if self.server.worker_id is not None:
            payload["worker"] = self.server.worker_id
        return payload

    def _lifecycle(self):
        lifecycle = self.server.service.lifecycle
        if lifecycle is None:
            raise ServeError("lifecycle disabled on this server")
        return lifecycle

    # -- routes ----------------------------------------------------------

    def _get_healthz(self, query: str, body: bytes) -> dict[str, Any]:
        payload = self.server.service.health()
        injector = active_injector()
        if injector is not None:
            payload["faults"] = injector.snapshot()
        return self._with_worker(payload)

    def _get_models(self, query: str, body: bytes) -> dict[str, Any]:
        return self._with_worker(self.server.service.lineage_stats())

    def _get_metrics(self, query: str, body: bytes):
        exposition = self.server.render_metrics().encode("utf-8")
        return exposition, METRICS_CONTENT_TYPE

    def _get_history(self, query: str, body: bytes) -> dict[str, Any]:
        lifecycle = self._lifecycle()
        model = parse_qs(query).get("model", [None])[0]
        return {
            "events": lifecycle.history(model),
            "journal": str(lifecycle.journal.path),
            "damaged_lines": lifecycle.journal.damaged_lines,
        }

    def _post_predict(self, query: str, body: bytes) -> dict[str, Any]:
        payload = _json_object(body)
        jobs = payload.get("jobs")
        if jobs is None:
            job = payload.get("job")
            jobs = [job] if job is not None else None
        if not jobs or not isinstance(jobs, list):
            raise ServeError('request needs "jobs": [...] or "job": {...}')
        response = self.server.service.predict_request(
            PredictRequest(
                records=jobs,
                model=payload.get("model", "BDT"),
                scenario=payload.get("scenario"),
                version=payload.get("version"),
            )
        )
        return {
            "model": response.model,
            "served_by": response.served_by,
            "version": response.version,
            "degraded": response.degraded,
            "dataset_digest": response.dataset_digest,
            # repr-based JSON floats round-trip exactly: the decoded
            # predictions are bit-identical to the in-process ones.
            "predictions": [float(p) for p in response.predictions],
            "n": len(response.predictions),
            "latency_ms": round((perf_counter() - self._t0) * 1e3, 3),
        }

    def _post_bulk(self, query: str, body: bytes):
        """The NDJSON bulk mode: one job per body line, one float per
        response line.

        Model and scenario overlay travel in the query string
        (``/v1/predict/bulk?model=BDT``) so the body stays a pure stream
        of job objects. The body is split once and each line is decoded
        straight from its bytes — no intermediate envelope dict, no
        per-record response objects — and the whole batch is answered by
        one vectorized ``bulk``-mode predict. Response lines are
        ``repr``-formatted floats (valid JSON), so decoded predictions
        are bit-identical to the in-process ones; batch-level metadata
        rides in ``X-Model`` / ``X-Served-By`` / ``X-Version`` /
        ``X-Degraded`` / ``X-N`` headers.
        """
        params = parse_qs(query)
        model = params.get("model", ["BDT"])[0]
        scenario = None
        if "scenario" in params:
            try:
                scenario = json.loads(params["scenario"][0])
            except ValueError as exc:
                raise ServeError(
                    f"scenario query param is not JSON: {exc}"
                ) from None
            if not isinstance(scenario, Mapping):
                raise ServeError("scenario query param must be a JSON object")
        version = None
        if "version" in params:
            try:
                version = int(params["version"][0])
            except ValueError:
                raise ServeError(
                    "version query param must be an integer"
                ) from None
        records: list[Any] = []
        for lineno, line in enumerate(body.split(b"\n"), start=1):
            if not line or line.isspace():
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ServeError(
                    f"invalid NDJSON on line {lineno}: {exc}"
                ) from None
            if not isinstance(record, Mapping):
                raise ServeError(f"line {lineno} must be a JSON job object")
            records.append(record)
        if not records:
            raise ServeError("bulk request body has no job lines")
        response = self.server.service.predict_request(
            PredictRequest(
                records=records, model=model, scenario=scenario,
                mode="bulk", version=version,
            )
        )
        lines = "\n".join(_float_repr(p) for p in response.predictions)
        return (lines + "\n").encode("ascii"), NDJSON_CONTENT_TYPE, {
            "X-Model": model,
            "X-Served-By": response.served_by,
            "X-Version": str(response.version),
            "X-Degraded": "1" if response.degraded else "0",
            "X-N": str(len(response.predictions)),
        }

    def _post_feedback(self, query: str, body: bytes) -> dict[str, Any]:
        """``POST /v1/feedback``: observed outcomes into the lifecycle."""
        jobs = _json_object(body).get("jobs")
        if not jobs or not isinstance(jobs, list):
            raise ServeError('feedback needs "jobs": [...]')
        return self.server.service.feedback(jobs)

    def _post_admin(self, query: str, body: bytes) -> dict[str, Any]:
        """``POST /v1/admin/promote|rollback``: journaled version flips."""
        lifecycle = self._lifecycle()
        payload = _json_object(body)
        model = payload.get("model")
        if not isinstance(model, str):
            raise ServeError('admin request needs "model"')
        who = str(payload.get("who", "http"))
        why = str(payload.get("why", ""))
        if self.path.partition("?")[0].endswith("/promote"):
            version = payload.get("version")
            if not isinstance(version, int):
                raise ServeError('promote needs an integer "version"')
            event = lifecycle.promote(model, version, who=who, why=why)
        else:
            to_version = payload.get("to_version")
            if to_version is not None and not isinstance(to_version, int):
                raise ServeError('"to_version" must be an integer')
            event = lifecycle.rollback(model, to_version, who=who, why=why)
        return {"event": event, "active": lifecycle.active_version(model)}


#: Every served (method, path) pair and its handler; any other GET or POST
#: is a 404.
ROUTES = {
    ("GET", "/v1/healthz"): _Handler._get_healthz,
    ("GET", "/v1/models"): _Handler._get_models,
    ("GET", "/v1/metrics"): _Handler._get_metrics,
    ("GET", "/v1/admin/history"): _Handler._get_history,
    ("POST", "/v1/predict"): _Handler._post_predict,
    ("POST", "/v1/predict/bulk"): _Handler._post_bulk,
    ("POST", "/v1/feedback"): _Handler._post_feedback,
    ("POST", "/v1/admin/promote"): _Handler._post_admin,
    ("POST", "/v1/admin/rollback"): _Handler._post_admin,
}

_PATHS = frozenset(path for _method, path in ROUTES)


class PredictionServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`PredictionService`.

    ``port=0`` binds an ephemeral port (tests, the bench harness);
    :attr:`address` reports the resolved ``host:port``. Use as a context
    manager, or call :meth:`shutdown` then :meth:`server_close`.

    Multi-process mode (:mod:`repro.serve.forking`) passes three extra
    knobs: ``reuse_port`` makes the bind set ``SO_REUSEPORT`` so sibling
    worker processes share one port and the kernel load-balances
    accepted connections; ``worker_id`` tags ``/v1/healthz`` and
    ``/v1/models`` responses; ``metrics_dir`` points at the directory of
    peer metric snapshots that :meth:`render_metrics` merges into a
    fleet-wide ``/v1/metrics`` exposition.
    """

    daemon_threads = True

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
        reuse_port: bool = False,
        worker_id: int | None = None,
        metrics_dir: "Path | str | None" = None,
    ) -> None:
        self.service = service
        self.verbose = verbose
        self.worker_id = worker_id
        self.metrics_dir = Path(metrics_dir) if metrics_dir is not None else None
        # socketserver.TCPServer applies this in server_bind (3.11+).
        self.allow_reuse_port = reuse_port
        self._serving = False
        super().__init__((host, port), _Handler)

    def render_metrics(self) -> str:
        """The ``/v1/metrics`` exposition body.

        Process-local registry by default; when ``metrics_dir`` is set,
        the live local registry is merged with every peer worker's
        latest on-disk snapshot (``metrics-<worker>.json``) so any
        worker answers for the whole fleet. A torn or half-written peer
        snapshot is skipped — stale-but-consistent beats corrupt.
        """
        if self.metrics_dir is None:
            return REGISTRY.render()
        states = [REGISTRY.dump()]
        own = (
            None
            if self.worker_id is None
            else self.metrics_dir / f"metrics-{self.worker_id}.json"
        )
        for path in sorted(self.metrics_dir.glob("metrics-*.json")):
            if own is not None and path == own:
                continue  # our own snapshot is stale vs the live registry
            try:
                states.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue
        return render_merged(states)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Blocking serve loop (``close`` from another thread stops it)."""
        self._serving = True
        super().serve_forever(poll_interval=poll_interval)

    @property
    def port(self) -> int:
        """The bound TCP port (resolved, even when constructed with 0)."""
        return self.server_address[1]

    @property
    def address(self) -> str:
        """``host:port`` string of the bound socket."""
        return f"{self.server_address[0]}:{self.port}"

    def serve_in_background(self) -> threading.Thread:
        """Start ``serve_forever`` on a daemon thread and return it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        thread.start()
        return thread

    def close(self) -> None:
        """Stop serving, close the socket, and shut the service down."""
        if self._serving:
            self.shutdown()
            self._serving = False
        self.server_close()
        self.service.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


def create_server(
    scenario="emmy",
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir=None,
    registry=None,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    warm: tuple[str, ...] = (),
    verbose: bool = False,
    lifecycle: bool = False,
    lifecycle_dir=None,
) -> PredictionServer:
    """Build a ready-to-serve :class:`PredictionServer` for one scenario.

    ``scenario`` is a :class:`~repro.spec.ScenarioSpec` (or a system
    name). ``warm`` names models to train/load before the socket starts
    answering (e.g. ``("BDT",)``). ``lifecycle=True`` (or a
    ``lifecycle_dir``) attaches a
    :class:`~repro.serve.lifecycle.ModelLifecycle`, enabling
    ``/v1/feedback``, shadow evaluation, and the admin verbs
    (docs/LIFECYCLE.md). The caller owns the server: call
    ``serve_forever`` (or :meth:`PredictionServer.serve_in_background`)
    and :meth:`PredictionServer.close`.
    """
    from repro.spec import as_scenario

    spec = as_scenario(scenario)
    if registry is None:
        registry = ModelRegistry(cache_dir=cache_dir)
    manager = None
    if lifecycle or lifecycle_dir is not None:
        from repro.serve.lifecycle import ModelLifecycle

        manager = ModelLifecycle(
            spec, registry=registry, lifecycle_dir=lifecycle_dir
        )
    service = PredictionService(
        spec,
        registry=registry,
        max_batch=max_batch,
        max_wait_s=max_wait_ms / 1e3,
        lifecycle=manager,
    )
    server = PredictionServer(service, host=host, port=port, verbose=verbose)
    if warm:
        service.warm(warm)
    return server
