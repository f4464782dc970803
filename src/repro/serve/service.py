"""The embeddable prediction service: registry + micro-batchers.

:class:`PredictionService` is the piece both the HTTP front-end and
in-process callers (tests, the bench harness, notebooks) drive. It owns

* a :class:`~repro.serve.registry.ModelRegistry` (shared, or private),
* one :class:`~repro.serve.batching.MicroBatcher` per served
  (dataset digest, model, version) triple, created lazily, and
* optionally a :class:`~repro.serve.lifecycle.ModelLifecycle` — when
  attached, requests resolve the **active** lineage version through the
  journal, live traffic is **shadow-mirrored** to a registered candidate
  off the hot path, and :meth:`feedback` accepts observed outcomes
  (docs/LIFECYCLE.md).

:meth:`PredictionService.predict_request` is the one predict method:
one :class:`~repro.serve.api.PredictRequest` in, one
:class:`~repro.serve.api.PredictResponse` out. Request counts, outcomes
and latency live in :data:`repro.obs.metrics.REGISTRY` (the
``repro_request*`` families), which :meth:`PredictionService.health`
reads back for ``/v1/healthz``.

Requests are validated *before* they enter a batch: an unknown user (for
the estimator models, whose category encoders are frozen at fit time)
fails that request alone instead of poisoning the vectorized call its
batch-mates share.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import ReproError, ServeError, ServiceClosed
from repro.obs.metrics import DEFAULT_LATENCY_BUCKETS, REGISTRY
from repro.obs.tracing import trace_span
from repro.serve.api import PredictRequest, PredictResponse
from repro.serve.batching import MicroBatcher
from repro.serve.registry import ModelRegistry
from repro.spec import ScenarioSpec, as_scenario

__all__ = ["PredictionService"]

_REQUIRED_FIELDS = ("user", "nodes", "req_walltime_s")

# Serving observability (docs/OBSERVABILITY.md). The conservation
# invariant the chaos auditor checks: every request counted in
# repro_requests_total lands in exactly one outcome series of
# repro_predict_outcomes_total (ok / degraded / failed).
_REQUESTS = REGISTRY.counter(
    "repro_requests_total",
    "Prediction requests submitted to PredictionService.predict_request.",
)
_OUTCOMES = REGISTRY.counter(
    "repro_predict_outcomes_total",
    "Prediction request outcomes: ok, degraded (baseline-served), failed.",
    labelnames=("outcome",),
)
_LATENCY = REGISTRY.histogram(
    "repro_request_latency_seconds",
    "End-to-end latency of answered prediction requests.",
    buckets=DEFAULT_LATENCY_BUCKETS,
)
_BULK = REGISTRY.counter(
    "repro_bulk_calls_total",
    "Bulk prediction calls (one vectorized predict per call, no batcher).",
)
_BULK_SIZE = REGISTRY.histogram(
    "repro_bulk_batch_size",
    "Records per bulk prediction call.",
    buckets=(1, 4, 16, 64, 256, 1024, 4096),
)


class PredictionService:
    """Micro-batched power prediction for one default scenario.

    Parameters
    ----------
    scenario:
        The default :class:`~repro.spec.ScenarioSpec` requests are
        answered against (anything :func:`repro.spec.as_scenario`
        accepts). Individual requests may override it.
    registry:
        Share a :class:`ModelRegistry` across services, or let the
        service build its own against ``cache_dir``.
    max_batch / max_wait_s / max_queue:
        Batching knobs, passed to every per-model
        :class:`~repro.serve.batching.MicroBatcher`.
    lifecycle:
        An optional :class:`~repro.serve.lifecycle.ModelLifecycle` for
        the same scenario (and sharing this service's registry). When
        set, requests without an explicit ``version`` serve the
        journal's active version, live responses are mirrored to the
        shadow candidate, and :meth:`feedback` ingests outcomes.
    """

    def __init__(
        self,
        scenario: "ScenarioSpec | Mapping | str" = "emmy",
        registry: ModelRegistry | None = None,
        cache_dir=None,
        max_batch: int = 64,
        max_wait_s: float = 0.002,
        max_queue: int = 4096,
        lifecycle=None,
    ) -> None:
        self.scenario = as_scenario(scenario)
        self.registry = registry or ModelRegistry(cache_dir=cache_dir)
        self.lifecycle = lifecycle
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.max_queue = max_queue
        self._batchers: dict[tuple[str, str, int], MicroBatcher] = {}
        self._shadow_pending: set[tuple[str, str, int]] = set()
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._closed = False
        self.n_degraded = 0  # lifetime count of fallback-served requests
        self._degraded_active = False  # was the most recent request degraded?

    # -- plumbing --------------------------------------------------------

    def _batcher(
        self, spec: ScenarioSpec, model: str, version: int = 1
    ) -> MicroBatcher:
        """The lazily created batcher for one (scenario, model, version)."""
        key = (spec.dataset_digest, model, version)
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            batcher = self._batchers.get(key)
        if batcher is not None:
            return batcher
        # Outside our lock: may train (v1) or load a snapshot artifact.
        servable = self.registry.get(spec, model, version=version)
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            batcher = self._batchers.get(key)
            if batcher is None:
                suffix = f".v{version}" if version != 1 else ""
                batcher = MicroBatcher(
                    servable.predict_records,
                    max_batch=self.max_batch,
                    max_wait_s=self.max_wait_s,
                    max_queue=self.max_queue,
                    name=f"{model}{suffix}@{key[0][:8]}",
                )
                self._batchers[key] = batcher
            return batcher

    def _resolve_version(self, spec: ScenarioSpec, model: str, explicit) -> int:
        """The lineage version a request serves from.

        An explicit request version wins; otherwise the lifecycle
        journal's active pointer (for the service's own scenario — an
        overlayed scenario has no lifecycle state and serves version 1).
        """
        if explicit is not None:
            return self.registry.check_version(explicit)
        if (
            self.lifecycle is not None
            and spec.dataset_digest == self.scenario.dataset_digest
        ):
            return self.lifecycle.active_version(model)
        return 1

    @staticmethod
    def _check_model_scenario(spec: ScenarioSpec, model: str) -> None:
        """Reject track models on systems that don't model their target.

        A caller mistake (a 400, not a degrade case): answering a GPU
        board-power request for emmy from the CPU mean-power baseline
        would be silently wrong, so it fails loudly instead.
        """
        if model not in ("GPU", "FAIL"):
            return
        from repro.cluster import get_spec

        system = get_spec(spec.system)
        if model == "GPU" and not system.has_gpus:
            raise ServeError(
                f"model 'GPU' needs a GPU system; {spec.system!r} has no "
                "GPUs (see docs/SCENARIOS.md)"
            )
        if model == "FAIL" and system.workload_profile == "hpc":
            raise ServeError(
                f"model 'FAIL' needs a failure-modeling system; "
                f"{spec.system!r} runs the HPC profile (see docs/SCENARIOS.md)"
            )

    @staticmethod
    def _required_fields(servable) -> tuple[str, ...]:
        """The record fields this servable's features need.

        Estimator servables expose their fitted
        :class:`~repro.ml.FeatureSpec` — the GPU track adds ``gpus``
        there, so its requests require it; baseline/online servables
        fall back to the classic three fields.
        """
        spec = getattr(servable, "feature_spec", None)
        if spec is None:
            return _REQUIRED_FIELDS
        from repro.ml import prediction_features

        return tuple(prediction_features(spec))

    def _validate(self, records: Sequence[Mapping], servable) -> None:
        required = self._required_fields(servable)
        spec = getattr(servable, "feature_spec", None)
        numeric = list(
            spec.numeric_columns if spec is not None else ("nodes", "req_walltime_s")
        )
        for i, record in enumerate(records):
            if not isinstance(record, Mapping):
                raise ServeError(f"request {i} must be a job object")
            missing = [f for f in required if f not in record]
            if missing:
                raise ServeError(f"request {i} lacks fields {missing}")
            try:
                values = {f: float(record[f]) for f in numeric}
            except (TypeError, ValueError):
                raise ServeError(
                    f"request {i}: fields {numeric} must be numeric"
                ) from None
            if "nodes" in values and values["nodes"] < 1:
                raise ServeError(f"request {i}: nodes must be >= 1")
            if "req_walltime_s" in values and values["req_walltime_s"] <= 0:
                raise ServeError(f"request {i}: req_walltime_s must be positive")
            if "gpus" in values and values["gpus"] < 0:
                raise ServeError(f"request {i}: gpus must be >= 0")
        known = servable.known_users
        if known is not None:
            unknown = sorted(
                {str(r["user"]) for r in records} - known
            )
            if unknown:
                raise ServeError(
                    f"unknown user(s) {unknown[:5]} for model "
                    f"{servable.model_name!r}; the online model accepts any user"
                )

    # -- request surface -------------------------------------------------

    def predict_request(self, request: PredictRequest) -> PredictResponse:
        """The one predict method: request object in, response out.

        ``batched`` mode submits each record to the coalescing
        micro-batcher, so concurrent callers' single-job requests share
        vectorized calls; ``bulk`` answers the caller-assembled batch
        with one vectorized call on the calling thread — bit-identical
        outputs for the same rows. When the registry cannot produce the
        requested model (training keeps failing under faults), the
        request is answered by the mean-power baseline and flagged
        ``degraded`` instead of erroring — caller mistakes (unknown
        model/user, malformed fields, an overloaded or closed batcher)
        still raise.
        """
        _REQUESTS.inc()
        bulk = request.mode == "bulk"
        if bulk:
            _BULK.inc()
            _BULK_SIZE.observe(len(request))
        t0 = time.perf_counter()
        span_name = "serve.predict_bulk" if bulk else "serve.predict"
        with trace_span(
            span_name, model=request.model, n_records=len(request)
        ) as span:
            try:
                result = self._predict_checked(request)
            except Exception:
                _OUTCOMES.inc(outcome="failed")
                raise
            outcome = "degraded" if result.degraded else "ok"
            _OUTCOMES.inc(outcome=outcome)
            _LATENCY.observe(time.perf_counter() - t0)
            if span is not None:
                span.set(outcome=outcome)
        return result

    def _predict_checked(self, request: PredictRequest) -> PredictResponse:
        records = request.records
        model = request.model
        if not records:
            raise ServeError("predict needs at least one record")
        spec = self.resolve_scenario(request.scenario)
        self.registry.check_model_name(model)
        self._check_model_scenario(spec, model)
        version = self._resolve_version(spec, model, request.version)
        try:
            servable = self.registry.get(spec, model, version=version)
        except ServiceClosed:
            raise
        except ReproError:
            if request.version is not None:
                # The caller pinned a version that cannot be served —
                # that's their mistake (400), not a degrade case.
                raise
            return self._predict_degraded(request, spec)
        self._validate(records, servable)
        if request.mode == "bulk":
            with self._lock:
                if self._closed:
                    raise ServiceClosed("service is closed")
            # Vectorized predicts are pure reads over the fitted model,
            # so concurrent bulk calls need no serialization.
            values = servable.predict_records(records)
        else:
            batcher = self._batcher(spec, model, version)
            values = batcher.predict_many(records, timeout=request.timeout)
        with self._lock:
            self._degraded_active = False
        values = np.asarray(values, dtype=float)
        self._maybe_mirror(spec, model, version, records, values)
        return PredictResponse(
            predictions=values,
            degraded=False,
            served_by=servable.model_name,
            model=model,
            version=version,
            dataset_digest=spec.dataset_digest,
        )

    def _predict_degraded(
        self, request: PredictRequest, spec: ScenarioSpec
    ) -> PredictResponse:
        """Answer from the mean-power baseline; flag it in the response."""
        servable = self.registry.fallback(spec)
        self._validate(request.records, servable)  # field checks still apply
        values = servable.predict_records(request.records)
        with self._lock:
            self.n_degraded += 1
            self._degraded_active = True
        return PredictResponse(
            predictions=np.asarray(values, dtype=float),
            degraded=True,
            served_by=servable.model_name,
            model=request.model,
            version=1,
            dataset_digest=spec.dataset_digest,
        )

    # -- shadow evaluation (docs/LIFECYCLE.md) ---------------------------

    def _maybe_mirror(
        self,
        spec: ScenarioSpec,
        model: str,
        version: int,
        records: Sequence[Mapping],
        values: np.ndarray,
    ) -> None:
        """Mirror a live response to the shadow candidate, off the hot path.

        Strictly fire-and-forget: records are enqueued on the
        *candidate's* micro-batcher (never the live one) and the paired
        live/candidate deltas are folded in by done-callbacks on the
        candidate batcher's worker thread. If the candidate's batcher
        does not exist yet, it is built by a background thread and this
        request's mirror is skipped — the live path never trains, loads,
        or waits for a shadow model. Failures only ever count drops.
        """
        lifecycle = self.lifecycle
        if lifecycle is None:
            return
        try:
            if spec.dataset_digest != self.scenario.dataset_digest:
                return
            candidate = lifecycle.candidate_version(model)
            if candidate is None or candidate == version:
                return
            key = (spec.dataset_digest, model, candidate)
            with self._lock:
                batcher = self._batchers.get(key)
                if batcher is None:
                    if self._closed or key in self._shadow_pending:
                        return
                    self._shadow_pending.add(key)
            if batcher is None:
                threading.Thread(
                    target=self._prepare_shadow,
                    args=(spec, model, candidate, key),
                    name=f"shadow-warm-{model}-v{candidate}",
                    daemon=True,
                ).start()
                return
            for record, live in zip(records, values):
                try:
                    future = batcher.submit(record)
                except ReproError:
                    lifecycle.count_shadow_drop(model)
                    continue
                future.add_done_callback(
                    functools.partial(lifecycle.record_shadow, model, float(live))
                )
        except Exception:  # noqa: BLE001 — shadowing must never break live
            pass

    def _prepare_shadow(self, spec, model, version, key) -> None:
        """Background build of a shadow candidate's batcher (loads artifact)."""
        try:
            self._batcher(spec, model, version)
        except Exception:  # noqa: BLE001 — a missing snapshot just drops
            if self.lifecycle is not None:
                self.lifecycle.count_shadow_drop(model)
        finally:
            with self._lock:
                self._shadow_pending.discard(key)

    def feedback(self, records: Sequence[Mapping]) -> dict[str, Any]:
        """Ingest observed job outcomes through the lifecycle layer.

        Raises :class:`~repro.errors.ServeError` when the service was
        built without a lifecycle (docs/LIFECYCLE.md).
        """
        if self.lifecycle is None:
            raise ServeError(
                "feedback needs a lifecycle-enabled service "
                "(pass lifecycle= or serve with --lifecycle)"
            )
        return self.lifecycle.feedback(records)

    def resolve_scenario(self, scenario) -> ScenarioSpec:
        """The effective spec for a request's optional scenario overlay."""
        if scenario is None:
            return self.scenario
        if isinstance(scenario, Mapping):
            # Overlay: the request names only the fields it changes.
            base = self.scenario.to_dict()
            overlay = dict(scenario)
            if "horizon_s" in overlay:
                base.pop("horizon_days", None)
            return ScenarioSpec.from_dict({**base, **overlay})
        return as_scenario(scenario)

    def warm(self, models: Sequence[str] = ("BDT",)) -> dict[str, str]:
        """Train/load the given models for the default scenario up front.

        Returns ``{model: "ok" | error message}``. A model whose
        training fails (e.g. under an armed ``registry.train`` fault)
        must not keep the service from starting — its requests will be
        served degraded until the registry recovers — so failures are
        reported, not raised. Unknown model names still raise, and a
        closed service still refuses.
        """
        outcome: dict[str, str] = {}
        for model in models:
            self.registry.check_model_name(model)
            try:
                version = self._resolve_version(self.scenario, model, None)
                self._batcher(self.scenario, model, version)
            except ServiceClosed:
                raise
            except ReproError as exc:
                outcome[model] = str(exc)
            else:
                outcome[model] = "ok"
        return outcome

    # -- inspection / lifecycle ------------------------------------------

    @property
    def uptime_s(self) -> float:
        """Seconds since the service object was created."""
        return time.monotonic() - self._started

    def health(self) -> dict[str, Any]:
        """The ``/v1/healthz`` view: liveness, degraded-mode state, latency.

        ``requests`` and ``latency`` read the process-wide
        ``repro_request_latency_seconds`` histogram (answered requests;
        exact count and mean, bucket-interpolated p50/p99). A server
        process holds one service, so they are that service's numbers.
        """
        with self._lock:
            degraded = self._degraded_active
            n_degraded = self.n_degraded
        count = _LATENCY.count()
        latency = {"count": count, "mean_ms": 0.0, "p50_ms": 0.0, "p99_ms": 0.0}
        if count:
            latency.update(
                mean_ms=round(_LATENCY.mean() * 1e3, 3),
                p50_ms=round(_LATENCY.quantile(0.50) * 1e3, 3),
                p99_ms=round(_LATENCY.quantile(0.99) * 1e3, 3),
            )
        return {
            "status": "degraded" if degraded else "ok",
            "degraded": degraded,
            "n_degraded": n_degraded,
            "uptime_s": round(self.uptime_s, 3),
            "requests": count,
            "latency": latency,
        }

    def lineage_stats(self) -> dict[str, Any]:
        """The ``/v1/models`` payload: per-model lineage + shadow state.

        With a lifecycle attached this is journal-derived (active
        pointer, registered versions, candidate, shadow evidence, drift
        latch); without one it reduces to the warm registry view with
        everything at version 1.
        """
        if self.lifecycle is not None:
            models = self.lifecycle.lineage()
            lifecycle = self.lifecycle.summary()
        else:
            warm = {
                (row["dataset_digest"], row["model"]): row
                for row in self.registry.loaded()
            }
            models = [
                {
                    "model": model,
                    "active": 1,
                    "versions": [1],
                    "candidate": None,
                    "trained_at_key": self.registry.model_key(
                        self.scenario, model, 1
                    ),
                    "shadow": None,
                    "drift": False,
                    "warm": (self.scenario.dataset_digest, model) in warm,
                }
                for model in sorted(
                    {m for (_d, m, _v) in self._batchers}
                    | {row["model"] for row in self.registry.loaded()}
                )
            ]
            lifecycle = None
        return {
            "scenario": self.scenario.to_dict(),
            "dataset_digest": self.scenario.dataset_digest,
            "models": models,
            "lifecycle": lifecycle,
        }

    def close(self) -> None:
        """Shut every batcher down; further predicts raise ServeError."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
        for batcher in batchers:
            batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
