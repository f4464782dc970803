"""Run one incident scenario against a live served system, fully recorded.

:func:`run_scenario` is the benchmark's engine (``repro incidents run``):

1. **Warmup (unarmed).** A scratch service is built for a small
   :class:`~repro.spec.ScenarioSpec` with the BDT model trained, the
   overlay dataset (a second digest the registry has not trained a
   model for) is pre-built, and a handful of reference requests pin the
   system's healthy latency. Nothing faulty has happened yet.
2. **Armed phase.** The scenario's seeded
   :class:`~repro.faults.plan.FaultPlan` is armed through a
   :class:`LedgerInjector` — a plain injector that additionally
   timestamps every fired call into an append-only ledger. While armed,
   closed-loop HTTP clients send the load profile's request mix
   (including injector-driven malformed bodies and cold-model overlay
   requests) and an operator thread runs forced pipeline rebuilds and
   artifact reads. An **observer** thread snapshots the process-wide
   metrics registry on a fixed cadence, recording per-window deltas;
   span traces stream to the bundle.
3. **Recovery.** Disarmed, a two-record baseline answered during
   warmup is asked again (after the metrics are snapshotted, so the
   record does not move) and must come back bit-identical; once the
   system stops, no batcher may hold a pending request.
4. **Bundle.** Everything lands in one self-contained directory —
   ``bundle.json`` (scenario, ground truth, digest), ``ledger.jsonl``,
   ``events.jsonl``, ``windows.jsonl``, ``metrics.json``,
   ``trace.jsonl`` — that :mod:`repro.incidents.detectors` can analyze
   offline, :mod:`repro.incidents.grader` can score and
   :func:`audit_bundle` can check against the system's own invariants.

Ground truth is *derived*, not declared: the set of points that fired,
each point's first fired call index, and the schedule-consistency check
all come from the ledger. Because every armed rule forces its window's
first call index and the orchestrator guarantees each armed point is
reached, *which points fired at which first index* is a pure function
of the scenario — that deterministic core is hashed into
``manifest["digest"]`` (same scenario ⇒ same digest, run after run).

Detectors get the observable record (events, windows, metrics deltas,
traces, the latency reference) and must not read the ledger or the
``repro_fault_*`` metric families — those are the answer key.
"""

from __future__ import annotations

import json
import pickle
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import CacheError, IncidentError
from repro.faults.injector import FaultInjector
from repro.incidents.harness import ServedSystem
from repro.incidents.scenarios import IncidentScenario, get_scenario
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.tracing import tracing_to
from repro.pipeline.cache import content_key
from repro.spec import ScenarioSpec

__all__ = [
    "LedgerInjector",
    "IncidentBundle",
    "audit_bundle",
    "run_scenario",
    "BUNDLE_MANIFEST",
]

#: File names inside an incident bundle directory.
BUNDLE_MANIFEST = "bundle.json"
_LEDGER = "ledger.jsonl"
_EVENTS = "events.jsonl"
_WINDOWS = "windows.jsonl"
_METRICS = "metrics.json"
_TRACE = "trace.jsonl"

#: Metric families that carry the answer key. Detectors must ignore
#: them; the grader uses them only to sanity-check bundles.
ANSWER_KEY_METRICS = ("repro_fault_calls_total", "repro_fault_fires_total")

#: Bodies a client sends when ``http.malformed`` fires, in rotation.
_MALFORMED_BODIES = (
    b'{"jobs": [{"user": "u0", "nodes": 1',  # truncated JSON
    b"not json at all",
    b'{"jobs": "not-a-list"}',
    b'{"jobs": [{"nodes": 1, "req_walltime_s": 60}]}',  # missing user
    b"[]",  # not an object
)

#: Bound on (server errors + lost requests) / requests in any bundle.
MAX_ERROR_RATE = 0.05

#: Cadence (seconds) of the observer's metric windows.
_OBSERVER_INTERVAL_S = 0.25
#: Unarmed one-job requests that pin the healthy latency reference.
_N_REFERENCE_REQUESTS = 6


def default_soak_scenario(seed: int = 3) -> ScenarioSpec:
    """The small served spec every scenario runs against by default."""
    return ScenarioSpec(
        "emmy", seed=seed, num_nodes=24, num_users=10,
        horizon_days=2, max_traces=10,
    )


class LedgerInjector(FaultInjector):
    """A :class:`FaultInjector` that timestamps every fire it makes.

    The ledger — one ``{"point", "call", "t"}`` record per fired call,
    ``t`` relative to :meth:`start_clock` — is the run's ground truth:
    which points actually fired, on which call indices, when.
    """

    def __init__(self, plan) -> None:
        super().__init__(plan)
        self._ledger: list[dict[str, Any]] = []
        self._ledger_lock = threading.Lock()
        self._t0: float | None = None

    def start_clock(self) -> float:
        """Zero the ledger clock (call when the armed phase begins)."""
        self._t0 = time.monotonic()
        return self._t0

    def elapsed(self) -> float:
        """Seconds since :meth:`start_clock` (0.0 before it)."""
        return 0.0 if self._t0 is None else time.monotonic() - self._t0

    def _record_fire(self, point: str, n: int) -> None:
        record = {"point": point, "call": n, "t": round(self.elapsed(), 6)}
        with self._ledger_lock:
            self._ledger.append(record)

    def ledger(self) -> list[dict[str, Any]]:
        """A copy of the fire ledger, in fire order."""
        with self._ledger_lock:
            return list(self._ledger)


# -- metric-state (de)serialization ---------------------------------------
# snapshot()/delta() key series by label-value tuples, which JSON cannot
# represent as object keys; bundles store them the way
# MetricsRegistry.dump() does: sorted [[labels...], value] pairs.


def _encode_state(
    state: Mapping[str, Mapping[tuple[str, ...], float]],
) -> dict[str, list]:
    return {
        name: [[list(labels), value] for labels, value in sorted(series.items())]
        for name, series in sorted(state.items())
    }


def _decode_state(data: Mapping[str, list]) -> dict[str, dict[tuple[str, ...], float]]:
    return {
        name: {tuple(labels): value for labels, value in series}
        for name, series in data.items()
    }


# -- the incident bundle ---------------------------------------------------


@dataclass
class IncidentBundle:
    """One recorded incident, loaded back from (or about to become) disk.

    ``manifest`` mirrors ``bundle.json``: the scenario spec, the load's
    latency reference, the derived ground truth, and the deterministic
    ``digest``. ``metrics`` holds decoded before/after/delta snapshot
    states; ``windows`` each carry a decoded per-window ``series`` delta.
    """

    path: Path
    manifest: dict[str, Any]
    ledger: list[dict[str, Any]] = field(default_factory=list)
    events: list[dict[str, Any]] = field(default_factory=list)
    windows: list[dict[str, Any]] = field(default_factory=list)
    metrics: dict[str, dict[str, dict[tuple[str, ...], float]]] = field(
        default_factory=dict
    )

    @property
    def scenario_name(self) -> str:
        return self.manifest["scenario"]["name"]

    @property
    def digest(self) -> str:
        return self.manifest["digest"]

    @property
    def ground_truth(self) -> dict[str, Any]:
        return self.manifest["ground_truth"]

    def metric_delta(self) -> dict[str, dict[tuple[str, ...], float]]:
        """The armed-phase registry delta (detector input)."""
        return self.metrics.get("delta", {})

    @classmethod
    def load(cls, path: str | Path) -> "IncidentBundle":
        """Read a bundle directory written by :func:`run_scenario`."""
        path = Path(path)
        if not (path / BUNDLE_MANIFEST).is_file():
            raise IncidentError(f"not an incident bundle: {path}")
        bundle = cls(path=path, manifest=_read_json(path / BUNDLE_MANIFEST))
        bundle.ledger = _read_json(path / _LEDGER, lines=True)
        bundle.events = _read_json(path / _EVENTS, lines=True)
        for window in _read_json(path / _WINDOWS, lines=True):
            window["series"] = _decode_state(window.get("series", {}))
            bundle.windows.append(window)
        if (path / _METRICS).is_file():
            raw = _read_json(path / _METRICS)
            bundle.metrics = {k: _decode_state(v) for k, v in raw.items()}
        return bundle


def _read_json(path: Path, lines: bool = False) -> Any:
    """One JSON document, or a JSONL list (``[]`` when absent).

    Anything unreadable raises :class:`IncidentError` naming the file.
    """
    if lines and not path.is_file():
        return []
    try:
        text = path.read_text()
        if not lines:
            return json.loads(text)
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except (OSError, ValueError) as exc:
        raise IncidentError(f"malformed bundle file {path}: {exc}") from None


def _write_jsonl(path: Path, records: list[dict[str, Any]]) -> None:
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def audit_bundle(bundle: IncidentBundle) -> list[str]:
    """The served system's own invariants over one bundle; empty if all hold.

    Every bundle must pass, whatever its scenario injects: no request
    went unanswered; server errors plus lost requests stay within
    :data:`MAX_ERROR_RATE`; the ``repro_requests_total`` delta equals
    the sum of the ``repro_predict_outcomes_total`` deltas; every
    ``repro_fault_fires_total`` series that moved agrees with the
    ledger (zero-delta series left by earlier runs are ignored); every
    armed point fired, on its schedule; the warmup baseline recovered
    bit-identically; and no future was left pending.
    """
    manifest, truth = bundle.manifest, bundle.ground_truth
    problems = []
    requests = Counter(
        e["category"] for e in bundle.events if e.get("kind") == "request"
    )
    if requests["lost"]:
        problems.append(f"{requests['lost']} request(s) got no answer")
    failed = requests["server_error"] + requests["lost"]
    total = sum(requests.values())
    if failed > MAX_ERROR_RATE * total:
        problems.append(
            f"{failed} of {total} requests failed, over the "
            f"{MAX_ERROR_RATE:.0%} bound"
        )
    delta = bundle.metric_delta()
    counted = int(sum(delta.get("repro_requests_total", {}).values()))
    answered = int(sum(delta.get("repro_predict_outcomes_total", {}).values()))
    if counted != answered:
        problems.append(
            f"repro_requests_total moved by {counted} but the outcome "
            f"series account for {answered}"
        )
    # Series earlier runs created show up here with a zero delta; they
    # agree with a ledger that has no fires for the point.
    moved = Counter({
        labels[0]: int(value)
        for labels, value in delta.get("repro_fault_fires_total", {}).items()
    })
    ledger = Counter(record["point"] for record in bundle.ledger)
    for point in sorted(set(moved) | set(ledger)):
        if moved[point] != ledger[point]:
            problems.append(
                f"repro_fault_fires_total{{point={point}}} moved by "
                f"{moved[point]}, the ledger has {ledger[point]}"
            )
    unfired = sorted(set(truth["armed_points"]) - set(truth["fired_points"]))
    if unfired:
        problems.append(f"armed point(s) never fired: {unfired}")
    if not truth["schedule_consistent"]:
        problems.append("fire counts disagree with the plan's schedule")
    if manifest.get("recovered_identical") is not True:
        problems.append("post-run predictions differ from the warmup baseline")
    if manifest.get("stuck_futures") != 0:
        problems.append(
            f"stuck futures after stop: {manifest.get('stuck_futures')}"
        )
    return problems


# -- the observer ----------------------------------------------------------


class _Observer(threading.Thread):
    """Snapshots the metrics registry on a cadence, recording deltas.

    Each window is ``{"t0", "t1", "series"}`` with ``series`` the
    encoded registry movement inside the window. A final window is
    always cut on :meth:`finish` so short runs still get coverage.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        clock: Callable[[], float],
        interval_s: float,
    ) -> None:
        super().__init__(name="incident-observer", daemon=True)
        self._metrics = metrics
        self._clock = clock
        self._interval_s = max(0.05, interval_s)
        self._halt = threading.Event()
        self.windows: list[dict[str, Any]] = []
        self._last_state = metrics.snapshot()
        self._last_t = clock()

    def _cut_window(self) -> None:
        state = self._metrics.snapshot()
        now = self._clock()
        delta = MetricsRegistry.delta(self._last_state, state)
        self.windows.append(
            {
                "t0": round(self._last_t, 6),
                "t1": round(now, 6),
                "series": _encode_state(delta),
            }
        )
        self._last_state = state
        self._last_t = now

    def run(self) -> None:
        while not self._halt.wait(self._interval_s):
            self._cut_window()

    def finish(self) -> list[dict[str, Any]]:
        """Stop observing, cut the final window, return all windows."""
        self._halt.set()
        self.join(timeout=10.0)
        self._cut_window()
        return self.windows


# -- load drivers ----------------------------------------------------------


def _categorize(status: int, body: Any, malformed: bool) -> str:
    if status == 200:
        degraded = isinstance(body, Mapping) and body.get("degraded")
        return "degraded" if degraded else "ok"
    if status == 400:
        return "malformed_rejected" if malformed else "rejected"
    return "server_error"


def _client_loop(
    system: ServedSystem,
    injector: LedgerInjector,
    scenario: IncidentScenario,
    client_id: int,
    users: list[str],
    overlay_seed: int,
    events: list[dict[str, Any]],
    events_lock: threading.Lock,
) -> None:
    """One closed-loop client: a deterministic number of mixed requests."""
    load = scenario.load
    for i in range(load.requests_per_client):
        # Client-driven injection point: the server never knows a bad
        # body is coming, it just has to answer 400 and stay up.
        malformed = injector.fire("http.malformed")
        raw_body: bytes | None = None
        payload: dict[str, Any] | None = None
        if malformed:
            raw_body = _MALFORMED_BODIES[i % len(_MALFORMED_BODIES)]
        else:
            payload = {
                "model": "BDT",
                "jobs": [
                    {
                        "user": users[(client_id + i) % len(users)],
                        "nodes": 1 + i % 4,
                        "req_walltime_s": 3600 + 60 * (i % 7),
                    }
                ],
            }
            if load.overlay_every and (i + 1) % load.overlay_every == 0:
                # Cold model on a fresh dataset digest: the registry must
                # train, so the registry.train point sees armed traffic.
                payload["model"] = "online"
                payload["scenario"] = {"seed": overlay_seed}
        t_send = injector.elapsed()
        t0 = time.perf_counter()
        try:
            status, _, body = system.request(
                "POST", "/v1/predict", payload=payload, raw_body=raw_body
            )
            category = _categorize(status, body, malformed)
        except Exception:
            status, category = 0, "lost"
        event = {
            "t": round(t_send, 6),
            "source": f"client-{client_id}",
            "kind": "request",
            "status": status,
            "category": category,
            "malformed": bool(malformed),
            "latency_s": round(time.perf_counter() - t0, 6),
        }
        with events_lock:
            events.append(event)
        if load.think_time_s:
            time.sleep(load.think_time_s)


def _ops_loop(
    scenario: IncidentScenario,
    overlay: ScenarioSpec,
    cache_root: Path,
    model_key: str,
    injector: LedgerInjector,
    events: list[dict[str, Any]],
    events_lock: threading.Lock,
) -> None:
    """Operator activity: forced pipeline rebuilds and artifact reads.

    Each round force-rebuilds the overlay dataset, which drives the
    cache.write / telemetry.drop points, then reads the served model's
    pickle (``model_key`` under ``MODEL_STAGE``), which drives
    cache.read / cache.corrupt. Every outcome — success, gap-filled
    telemetry, or a typed failure — is an event a detector may use; the
    *exception type plus operation* is the observable, never the
    injector's own accounting.
    """
    from repro.pipeline import ArtifactCache, run_pipeline
    from repro.serve.registry import MODEL_STAGE

    load = scenario.load
    cache = ArtifactCache(cache_root)
    shard = overlay.to_shard_config()

    def emit(kind: str, **extra: Any) -> None:
        with events_lock:
            events.append(
                {"t": round(injector.elapsed(), 6), "source": "ops",
                 "kind": kind, **extra}
            )

    for _ in range(load.ops_rounds):
        try:
            manifest = run_pipeline([shard], cache_dir=cache_root, force=True)
        except CacheError as exc:
            emit("build_error", error_type="CacheError", message=str(exc))
        except pickle.UnpicklingError as exc:
            emit("build_error", error_type="UnpicklingError", message=str(exc))
        except Exception as exc:  # a faulted build must never kill the run
            emit("build_error", error_type=type(exc).__name__, message=str(exc))
        else:
            emit("build_ok", gaps=int(manifest.n_gaps))
        for _ in range(load.reads_per_round):
            try:
                cache.load_pickle(MODEL_STAGE, model_key)
            except pickle.UnpicklingError as exc:
                emit("read_error", error_type="UnpicklingError", message=str(exc))
            except CacheError as exc:
                emit("read_error", error_type="CacheError", message=str(exc))
            else:
                emit("read_ok")


# -- the orchestrator ------------------------------------------------------


def _ground_truth(injector: LedgerInjector) -> dict[str, Any]:
    """Derive the run's answer key from the injector's ledger."""
    plan = injector.plan
    fired: dict[str, dict[str, Any]] = {}
    for record in injector.ledger():
        entry = fired.setdefault(
            record["point"],
            {"fires": 0, "first_call": record["call"], "first_t": record["t"]},
        )
        entry["fires"] += 1
        entry["first_call"] = min(entry["first_call"], record["call"])
        entry["first_t"] = min(entry["first_t"], record["t"])
    schedule_consistent = all(
        injector.fires(point)
        == len(plan.schedule(point, injector.calls(point)))
        for point in plan.points
    )
    return {
        "armed_points": list(plan.points),
        "fired_points": fired,
        "schedule_consistent": schedule_consistent,
    }


def _bundle_digest(
    scenario: IncidentScenario, spec: ScenarioSpec, truth: dict[str, Any]
) -> str:
    """Hash of the run's deterministic core: same scenario ⇒ same digest.

    Covers the frozen scenario (plan + load), the served spec, the set
    of fired points, and each point's first fired call index — all pure
    functions of the scenario because armed rules force their window's
    first call and the load guarantees every armed point is reached.
    Wall-clock times and rate-dependent later fires are excluded.
    """
    return content_key(
        {
            "scenario": scenario.to_dict(),
            "spec": spec.to_dict(),
            "fired_points": sorted(truth["fired_points"]),
            "first_calls": {
                point: info["first_call"]
                for point, info in sorted(truth["fired_points"].items())
            },
        }
    )


def run_scenario(
    scenario: IncidentScenario | str,
    out_dir: str | Path,
    *,
    cache_dir: str | Path | None = None,
    verbose: bool = False,
) -> IncidentBundle:
    """Run one incident scenario end-to-end; returns the written bundle.

    ``out_dir`` gets a ``<scenario-name>/`` bundle directory (replaced
    if present). ``cache_dir`` is the scratch artifact cache — pass one
    to reuse warmed pipeline artifacts across scenarios in a batch run;
    the default builds (and removes) a private temporary cache so every
    run starts cold and reproducible. The served system is
    :func:`default_soak_scenario`, served in-process: fault arming is
    process-wide.
    """
    import tempfile

    from repro.serve import PredictRequest

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    spec = default_soak_scenario()
    overlay_seed = spec.seed + 1
    overlay = spec.replace(seed=overlay_seed)

    bundle_dir = Path(out_dir) / scenario.name
    if bundle_dir.exists():
        import shutil

        shutil.rmtree(bundle_dir)
    bundle_dir.mkdir(parents=True)

    scratch = None
    if cache_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-incident-")
        cache_dir = scratch.name
    cache_root = Path(cache_dir)

    events: list[dict[str, Any]] = []
    events_lock = threading.Lock()
    injector = LedgerInjector(scenario.plan)
    t_wall = time.perf_counter()

    try:
        with ServedSystem(spec, cache_dir=cache_root, warm=("BDT",)) as system:
            service = system.service
            users = sorted(service.registry.get(spec, "BDT").known_users)
            baseline = PredictRequest(records=(
                {"user": users[0], "nodes": 2, "req_walltime_s": 3600},
                {"user": users[-1], "nodes": 4, "req_walltime_s": 7200},
            ))
            expected = service.predict_request(baseline).predictions

            # Warmup, unarmed: pre-build the overlay dataset (overlay
            # training consumes it) and pin the healthy latency
            # reference nothing faulty has touched yet. The ops reads
            # take the BDT model the warm start committed to the cache.
            from repro.pipeline import run_pipeline

            run_pipeline([overlay.to_shard_config()], cache_dir=cache_root)
            reference_latencies = []
            for i in range(_N_REFERENCE_REQUESTS):
                t0 = time.perf_counter()
                status, _, _ = system.post(
                    "/v1/predict",
                    {
                        "model": "BDT",
                        "jobs": [
                            {
                                "user": users[i % len(users)],
                                "nodes": 1 + i % 4,
                                "req_walltime_s": 3600,
                            }
                        ],
                    },
                )
                if status == 200:
                    reference_latencies.append(time.perf_counter() - t0)
            ref_latency_s = (
                sum(reference_latencies) / len(reference_latencies)
                if reference_latencies
                else 0.0
            )

            # Armed phase: clients + ops under the plan, fully observed.
            metrics_before = REGISTRY.snapshot()
            injector.start_clock()
            observer = _Observer(REGISTRY, injector.elapsed, _OBSERVER_INTERVAL_S)
            with tracing_to(bundle_dir / _TRACE):
                with system.armed(injector):
                    observer.start()
                    threads = [
                        threading.Thread(
                            target=_client_loop,
                            args=(system, injector, scenario, k, users,
                                  overlay_seed, events, events_lock),
                            name=f"incident-client-{k}",
                        )
                        for k in range(scenario.load.n_clients)
                    ]
                    threads.append(
                        threading.Thread(
                            target=_ops_loop,
                            args=(scenario, overlay, cache_root,
                                  service.registry.model_key(spec, "BDT"),
                                  injector, events, events_lock),
                            name="incident-ops",
                        )
                    )
                    for t in threads:
                        t.start()
                    for t in threads:
                        t.join()
                windows = observer.finish()
            duration_s = injector.elapsed()
            metrics_after = REGISTRY.snapshot()
            # Disarmed and outside the record: the faults have cleared,
            # so the warmup baseline must come back bit-identical.
            after = service.predict_request(baseline).predictions
        # Stopped: closing the batchers fails leftovers, none may linger.
        stuck_futures = sum(b.pending for b in service._batchers.values())
    finally:
        if scratch is not None:
            scratch.cleanup()

    truth = _ground_truth(injector)
    manifest = {
        "format": "repro-incident-bundle/1",
        "scenario": scenario.to_dict(),
        "spec": spec.to_dict(),
        "overlay_seed": overlay_seed,
        "ref_latency_s": round(ref_latency_s, 6),
        "duration_s": round(duration_s, 3),
        "wall_seconds": round(time.perf_counter() - t_wall, 3),
        "n_events": len(events),
        "n_windows": len(windows),
        "recovered_identical": expected.tobytes() == after.tobytes(),
        "stuck_futures": stuck_futures,
        "ground_truth": truth,
        "digest": _bundle_digest(scenario, spec, truth),
    }

    events.sort(key=lambda e: (e["t"], e["source"], e.get("kind", "")))
    (bundle_dir / BUNDLE_MANIFEST).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    _write_jsonl(bundle_dir / _LEDGER, injector.ledger())
    _write_jsonl(bundle_dir / _EVENTS, events)
    _write_jsonl(bundle_dir / _WINDOWS, windows)
    (bundle_dir / _METRICS).write_text(
        json.dumps(
            {
                "before": _encode_state(metrics_before),
                "after": _encode_state(metrics_after),
                "delta": _encode_state(
                    MetricsRegistry.delta(metrics_before, metrics_after)
                ),
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    if verbose:
        fired = ", ".join(sorted(truth["fired_points"])) or "none"
        print(
            f"[incidents] {scenario.name}: {len(events)} events, "
            f"{manifest['wall_seconds']}s wall, fired: {fired}"
        )
    bundle = IncidentBundle(path=bundle_dir, manifest=manifest)
    bundle.ledger = injector.ledger()
    bundle.events = events
    bundle.windows = [
        {**w, "series": _decode_state(w["series"])} for w in windows
    ]
    bundle.metrics = {
        "before": metrics_before,
        "after": metrics_after,
        "delta": MetricsRegistry.delta(metrics_before, metrics_after),
    }
    return bundle
