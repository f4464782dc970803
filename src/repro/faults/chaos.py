"""The chaos soak engine: hammer the serving stack under an armed plan.

:func:`run_soak` is what ``tools/chaos_soak.py`` (``make chaos-soak`` /
``chaos-smoke``) and the chaos tests drive. One run:

1. builds a scratch service for a small scenario and records a
   *baseline* prediction vector, unarmed;
2. arms :func:`~repro.faults.plan.soak_plan` and lets N HTTP client
   threads plus one pipeline-churn thread run for ``duration_s`` —
   clients mix normal, degraded-forcing, overlay, and malformed
   requests; the churn thread rebuilds and re-reads pipeline artifacts
   so the cache and telemetry injection points see traffic;
3. disarms, replays the baseline request, and checks it is
   **bit-identical** to the pre-chaos answer;
4. audits the run: zero lost requests, zero stuck futures, every
   injection point fired at least once, fire counts exactly matching
   the plan's deterministic schedule, a bounded error rate, and the
   observability invariants — the run's delta of
   ``repro_requests_total`` equals the sum of its outcome counters,
   and the ``repro_fault_fires_total`` deltas match the injector's own
   per-point fire counts (which step 4 already tied to the schedule).

Everything the audit needs is in the returned :class:`ChaosReport`;
``report.passed`` is the single gate CI asserts.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.faults.injector import FaultInjector
from repro.faults.plan import INJECTION_POINTS, FaultPlan, soak_plan
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.spec import ScenarioSpec

__all__ = ["ChaosReport", "run_soak", "default_soak_scenario"]

#: Response categories the clients tally. Every request ends in exactly
#: one of them; ``lost`` (no terminal answer) must stay at zero.
CATEGORIES = (
    "ok", "degraded", "malformed_rejected", "rejected", "server_error", "lost",
)

_MALFORMED_BODIES = (
    b'{"jobs": [{"user": "u0", "nodes": 1',  # truncated JSON
    b"not json at all",
    b'{"jobs": "not-a-list"}',
    b'{"jobs": [{"nodes": 1, "req_walltime_s": 60}]}',  # missing user
    b"[]",  # not an object
)


def default_soak_scenario(seed: int = 3) -> ScenarioSpec:
    """The small scenario soak runs default to (seconds, not minutes)."""
    return ScenarioSpec(
        "emmy", seed=seed, num_nodes=24, num_users=10,
        horizon_days=2, max_traces=10,
    )


@dataclass
class ChaosReport:
    """Everything one soak run measured, plus the pass/fail audit."""

    seed: int
    duration_s: float
    n_clients: int
    max_error_rate: float
    counts: dict[str, int] = field(default_factory=dict)
    injector: dict[str, Any] = field(default_factory=dict)
    schedule_consistent: bool = False
    recovered_identical: bool = False
    stuck_futures: int = 0
    batcher_crashes: int = 0
    n_degraded_service: int = 0
    churn_builds: int = 0
    churn_faults: int = 0
    wall_seconds: float = 0.0
    # This run's metric deltas plus any invariant violations; filled by
    # _audit_metrics. True by default so hand-built reports (tests)
    # aren't failed for never having run the metric audit.
    metrics: dict[str, Any] = field(default_factory=dict)
    metrics_consistent: bool = True

    @property
    def total(self) -> int:
        """Requests the clients issued (every category, lost included)."""
        return sum(self.counts.get(c, 0) for c in CATEGORIES)

    @property
    def error_rate(self) -> float:
        """Fraction of requests that ended in 500 / no answer."""
        bad = self.counts.get("server_error", 0) + self.counts.get("lost", 0)
        return bad / self.total if self.total else 0.0

    @property
    def points_fired(self) -> dict[str, int]:
        """Per-point fire counts from the injector snapshot."""
        counters = self.injector.get("counters", {})
        return {p: counters.get(p, {}).get("fires", 0) for p in INJECTION_POINTS}

    def problems(self) -> list[str]:
        """Audit failures, empty when the run passed."""
        out = []
        if self.total == 0:
            out.append("no requests were issued")
        if self.counts.get("lost", 0):
            out.append(f"{self.counts['lost']} request(s) got no answer")
        if self.stuck_futures:
            out.append(f"{self.stuck_futures} future(s) stuck after close")
        unfired = sorted(p for p, n in self.points_fired.items() if n == 0)
        if unfired:
            out.append(f"injection point(s) never fired: {unfired}")
        if not self.schedule_consistent:
            out.append("fire counts disagree with the plan's schedule")
        if not self.recovered_identical:
            out.append("post-chaos predictions differ from the baseline")
        if self.error_rate > self.max_error_rate:
            out.append(
                f"error rate {self.error_rate:.1%} over the "
                f"{self.max_error_rate:.1%} bound"
            )
        if not self.metrics_consistent:
            for problem in self.metrics.get("problems", ["metric audit failed"]):
                out.append(f"metric invariant violated: {problem}")
        return out

    @property
    def passed(self) -> bool:
        return not self.problems()

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (the soak tool writes this next to the log)."""
        return {
            "seed": self.seed,
            "duration_s": self.duration_s,
            "n_clients": self.n_clients,
            "max_error_rate": self.max_error_rate,
            "counts": dict(self.counts),
            "total": self.total,
            "error_rate": round(self.error_rate, 5),
            "injector": self.injector,
            "schedule_consistent": self.schedule_consistent,
            "recovered_identical": self.recovered_identical,
            "stuck_futures": self.stuck_futures,
            "batcher_crashes": self.batcher_crashes,
            "n_degraded_service": self.n_degraded_service,
            "churn_builds": self.churn_builds,
            "churn_faults": self.churn_faults,
            "wall_seconds": round(self.wall_seconds, 3),
            "metrics": self.metrics,
            "metrics_consistent": self.metrics_consistent,
            "passed": self.passed,
            "problems": self.problems(),
        }

    def summary(self) -> str:
        """Human-readable digest for the soak tool's stdout."""
        lines = [
            f"chaos soak: seed {self.seed}, {self.n_clients} client(s), "
            f"{self.wall_seconds:.1f}s wall",
            "requests: " + "  ".join(
                f"{c}={self.counts.get(c, 0)}" for c in CATEGORIES
            ) + f"  (total {self.total}, error rate {self.error_rate:.2%})",
            "fires:    " + "  ".join(
                f"{p}={n}" for p, n in sorted(self.points_fired.items())
            ),
            f"service: {self.n_degraded_service} degraded answer(s), "
            f"{self.batcher_crashes} batcher crash(es), "
            f"{self.churn_builds} churn build(s) ({self.churn_faults} faulted)",
            f"recovered bit-identical: {self.recovered_identical}   "
            f"schedule consistent: {self.schedule_consistent}   "
            f"metrics consistent: {self.metrics_consistent}",
        ]
        verdict = "PASS" if self.passed else "FAIL: " + "; ".join(self.problems())
        return "\n".join(lines + [verdict])


def _post(conn: http.client.HTTPConnection, body: bytes) -> tuple[int, dict]:
    conn.request(
        "POST", "/v1/predict", body=body,
        headers={"Content-Type": "application/json"},
    )
    resp = conn.getresponse()
    data = resp.read()
    try:
        payload = json.loads(data)
    except json.JSONDecodeError:
        payload = {}
    return resp.status, payload


def _client_loop(
    address: tuple[str, int],
    deadline: float,
    injector: FaultInjector,
    counts: dict[str, int],
    counts_lock: threading.Lock,
    overlay_seed: int,
    users: list[str],
) -> None:
    """One chaos client: mixed request stream until the deadline."""
    conn = http.client.HTTPConnection(*address, timeout=60.0)
    i = 0
    while time.monotonic() < deadline:
        # The malformed-payload point is client-driven: the server never
        # knows a bad body is coming, it just must answer 400 and live.
        malformed = injector.fire("http.malformed")
        if malformed:
            body = _MALFORMED_BODIES[i % len(_MALFORMED_BODIES)]
        else:
            request: dict[str, Any] = {
                "model": "BDT",
                "jobs": [{
                    "user": users[i % len(users)],
                    "nodes": 1 + i % 4,
                    "req_walltime_s": 3600 + 60 * (i % 7),
                }],
            }
            kind = i % 8
            if kind == 5:
                # Cold model: forces registry training mid-soak, so the
                # registry.train point sees armed traffic.
                request["model"] = "online"
            elif kind == 6:
                # Scenario overlay: a second dataset digest, so cache and
                # telemetry points see full builds mid-soak too. Served by
                # the online model — its user vocabulary is open, so the
                # base scenario's user names stay valid.
                request["model"] = "online"
                request["scenario"] = {"seed": overlay_seed}
            body = json.dumps(request).encode()
        try:
            status, payload = _post(conn, body)
        except Exception:
            category = "lost"
            conn.close()
            conn = http.client.HTTPConnection(*address, timeout=60.0)
        else:
            if status == 200:
                category = "degraded" if payload.get("degraded") else "ok"
            elif status == 400:
                category = "malformed_rejected" if malformed else "rejected"
            else:
                category = "server_error"
        with counts_lock:
            counts[category] = counts.get(category, 0) + 1
        i += 1
    conn.close()


def _churn_loop(
    overlay: ScenarioSpec,
    cache_root,
    deadline: float,
    tally: dict[str, int],
) -> None:
    """Rebuild and re-read pipeline artifacts while faults are armed.

    This is what drives cache.read / cache.write / cache.corrupt /
    telemetry.drop traffic: every iteration runs the cached pipeline for
    the overlay scenario and then consumes an intermediate artifact the
    way a warm-start worker would.
    """
    from repro.pipeline import ArtifactCache, build_dataset
    from repro.pipeline.config import ShardConfig, stage_key

    cache = ArtifactCache(cache_root)
    shard = ShardConfig.from_scenario(overlay)
    key = stage_key(shard, "schedule")
    while time.monotonic() < deadline:
        try:
            build_dataset(**overlay.dataset_kwargs(), cache_dir=cache_root)
            tally["builds"] += 1
        except Exception:
            # CacheError from cache.write/read, UnpicklingError from
            # cache.corrupt — either way, this build lost; try again.
            tally["faults"] += 1
        try:
            if cache.has("schedule", key):
                cache.load_pickle("schedule", key)
        except Exception:
            tally["faults"] += 1


def _audit_metrics(
    delta: dict[str, dict[tuple[str, ...], float]], injector: FaultInjector
) -> dict[str, Any]:
    """Check the observability invariants over one soak's metric deltas.

    The deltas isolate this run even though the process-wide counters
    carry over between runs (:meth:`MetricsRegistry.snapshot` /
    ``delta``). Invariants: request conservation (every request counted
    lands in exactly one outcome series) and fault-fire agreement (the
    ``repro_fault_fires_total`` deltas equal the injector's own per-point
    counts, which the schedule audit already pins to the plan).
    """
    requests = sum(delta.get("repro_requests_total", {}).values())
    outcomes = {
        key[0]: int(v)
        for key, v in delta.get("repro_predict_outcomes_total", {}).items()
    }
    fires = {
        key[0]: int(v)
        for key, v in delta.get("repro_fault_fires_total", {}).items()
    }
    problems: list[str] = []
    answered = sum(outcomes.values())
    if int(requests) != answered:
        problems.append(
            f"repro_requests_total moved by {int(requests)} but outcomes "
            f"(ok/degraded/failed) account for {answered}"
        )
    for point in injector.plan.points:
        expected = injector.fires(point)
        got = fires.get(point, 0)
        if got != expected:
            problems.append(
                f"repro_fault_fires_total{{point={point}}} moved by {got}, "
                f"injector counted {expected}"
            )
    return {
        "requests": int(requests),
        "outcomes": outcomes,
        "fault_fires": fires,
        "problems": problems,
    }


def run_soak(
    seed: int = 0,
    duration_s: float = 10.0,
    n_clients: int = 4,
    rate: float = 0.15,
    scenario: ScenarioSpec | None = None,
    cache_dir=None,
    max_error_rate: float = 0.05,
    plan: FaultPlan | None = None,
) -> ChaosReport:
    """One full chaos soak against a scratch service; see module docs.

    ``cache_dir`` should be a scratch directory (the run writes model
    and pipeline artifacts there). ``plan`` defaults to
    :func:`~repro.faults.plan.soak_plan` at ``rate`` — pass an explicit
    plan to narrow the blast radius. Same ``seed`` ⇒ same fault
    schedule, always.
    """
    from repro.serve import PredictRequest, create_server

    spec = scenario if scenario is not None else default_soak_scenario()
    plan = plan if plan is not None else soak_plan(seed=seed, rate=rate)
    overlay_seed = spec.seed + 1
    overlay = spec.replace(seed=overlay_seed)
    report = ChaosReport(
        seed=seed, duration_s=duration_s, n_clients=n_clients,
        max_error_rate=max_error_rate,
        counts={c: 0 for c in CATEGORIES},
    )
    t_start = time.perf_counter()
    metrics_before = REGISTRY.snapshot()

    # Unarmed: build the service, warm the default model, and pin the
    # baseline answer chaos must not change.
    server = create_server(spec, cache_dir=cache_dir, warm=("BDT",))
    service = server.service
    users = sorted(service.registry.get(spec, "BDT").known_users)
    baseline = PredictRequest(records=(
        {"user": users[0], "nodes": 2, "req_walltime_s": 3600},
        {"user": users[-1], "nodes": 4, "req_walltime_s": 7200},
    ))
    expected = service.predict_request(baseline).predictions
    server.serve_in_background()
    address = (server.server_address[0], server.port)

    injector = FaultInjector(plan)
    churn_tally = {"builds": 0, "faults": 0}
    counts_lock = threading.Lock()
    try:
        with injector:
            deadline = time.monotonic() + duration_s
            threads = [
                threading.Thread(
                    target=_client_loop,
                    args=(address, deadline, injector, report.counts,
                          counts_lock, overlay_seed, users),
                    name=f"chaos-client-{k}",
                )
                for k in range(n_clients)
            ]
            threads.append(
                threading.Thread(
                    target=_churn_loop,
                    args=(overlay, service.registry.cache.root, deadline,
                          churn_tally),
                    name="chaos-churn",
                )
            )
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        # Disarmed: the faults have cleared; the service must answer the
        # baseline request bit-identically again.
        after = service.predict_request(baseline).predictions
        report.recovered_identical = bool(np.array_equal(expected, after))
        report.n_degraded_service = service.n_degraded
        report.batcher_crashes = sum(
            b.crashes for b in service._batchers.values()
        )
    finally:
        server.close()

    # Zero stuck futures: after close every batcher queue must be drained
    # (close fails leftovers with ServiceClosed; nothing may linger).
    report.stuck_futures = sum(
        b.pending for b in service._batchers.values()
    )
    report.injector = injector.snapshot()
    # Determinism audit: with call indices assigned atomically, the fire
    # count at each point must equal exactly what the plan schedules for
    # that many calls — same seed, same counts, same faults.
    report.schedule_consistent = all(
        injector.fires(point) == len(plan.schedule(point, injector.calls(point)))
        for point in plan.points
    )
    report.churn_builds = churn_tally["builds"]
    report.churn_faults = churn_tally["faults"]
    # Observability audit: the same run, as the /v1/metrics counters saw it.
    report.metrics = _audit_metrics(
        MetricsRegistry.delta(metrics_before, REGISTRY.snapshot()), injector
    )
    report.metrics_consistent = not report.metrics["problems"]
    report.wall_seconds = time.perf_counter() - t_start
    return report
