"""Drift-aware model lifecycle: feedback, drift, shadow eval, promote/rollback.

The registry serves *immutable* artifacts; this module decides **which**
artifact serves. It is the production layer the paper's deployment
argument (RQ7–RQ9: user-history models are "light-weight and easy to
maintain/update") calls for, following the continuously-retrained power
models of Sîrbu & Babaoglu (arXiv:1601.05961) and the online
candidate-evaluation stage of the NERSC two-stage framework
(arXiv:2604.02158):

* **Feedback ingest** — :meth:`ModelLifecycle.feedback` (HTTP:
  ``POST /v1/feedback``; offline: :func:`replay_feedback`) appends
  observed ``(job, actual power)`` records to a per-scenario JSONL
  feedback log and updates a live
  :class:`~repro.ml.OnlinePowerPredictor` *prequentially*
  (predict-then-observe, O(1) per job) — deterministic given the feed
  order, so two replicas fed the same stream hold bit-identical state.
* **Drift detection** — :class:`DriftDetector` derives rolling
  prediction-error and feature-distribution windows from
  :meth:`repro.obs.metrics.MetricsRegistry.snapshot` /
  :meth:`~repro.obs.metrics.MetricsRegistry.delta`; a tripped threshold
  rule latches the ``repro_drift_active`` gauge, counts a
  ``repro_drift_events_total`` series, structured-logs the event, and
  records it in the journal.
* **Shadow evaluation** — when a candidate version is registered, the
  service mirrors every live request to it off the hot path (through
  the candidate's own micro-batcher); paired live/candidate deltas
  accumulate in ``repro_shadow_abs_diff`` and surface as the promote
  evidence (:meth:`ModelLifecycle.shadow_report`).
* **Promote / rollback with an audit trail** — the ``active`` pointer
  per ``(scenario, model)`` lives in a :class:`LineageJournal`
  (append-only JSONL, fsync'd). :meth:`ModelLifecycle.promote` and
  :meth:`~ModelLifecycle.rollback` append who/when/why plus the shadow
  evidence; every serving process — including all forked workers —
  picks the flip up on its next (stat-throttled) journal refresh, and
  rollback restores bit-identical predictions because versions are
  immutable content-addressed artifacts.

See docs/LIFECYCLE.md for the full flow and the journal format.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ServeError, ValidationError
from repro.obs.logs import JsonLogger
from repro.obs.metrics import REGISTRY, MetricsRegistry
from repro.obs.tracing import trace_span
from repro.serve.registry import SERVE_MODELS, ModelRegistry, OnlineServable
from repro.spec import as_scenario

__all__ = [
    "LineageJournal",
    "DriftDetector",
    "ModelLifecycle",
    "replay_feedback",
    "default_lifecycle_dir",
]

_LOG = JsonLogger("repro.serve.lifecycle")

#: Fields one feedback record must carry (the predict fields + outcome).
FEEDBACK_FIELDS = ("user", "nodes", "req_walltime_s", "power_w")

#: Absolute-fractional-error buckets for feedback/shadow histograms.
ERROR_BUCKETS: tuple[float, ...] = (
    0.01, 0.02, 0.05, 0.1, 0.15, 0.25, 0.4, 0.6, 1.0, 2.0,
)

#: Coarse value buckets for feature-distribution histograms (the drift
#: windows only use the exact sum/count, never the bucket shape).
FEATURE_BUCKETS: tuple[float, ...] = (1.0, 4.0, 16.0, 64.0, 256.0, 1e3, 1e4, 1e5, 1e6)


def default_lifecycle_dir(cache_root: "Path | str") -> Path:
    """The journal/feedback directory inside an artifact-cache root."""
    return Path(cache_root) / "lifecycle"


class LineageJournal:
    """Append-only, fsync'd JSONL journal of lifecycle events.

    The journal is the *only* mutable state in the lifecycle layer:
    model artifacts are immutable, so "which version is active" is fully
    determined by replaying the journal. Appends write one JSON line,
    flush, and ``fsync`` (a sub-pipe-buf single ``write`` on an
    ``O_APPEND`` descriptor, so concurrent workers' appends interleave
    whole lines). Reads are incremental: :meth:`refresh` stats the file
    and only parses bytes past the last consumed offset, throttled to
    ``poll_s`` so per-request active-pointer lookups cost at most one
    ``stat``.

    Damaged lines (a torn write, external corruption) are *skipped and
    counted*, never fatal — a journal must survive the same disk
    trouble the ``cache.corrupt`` fault point simulates for pickles.
    """

    def __init__(self, path: "Path | str", poll_s: float = 0.05, fsync: bool = True) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.poll_s = poll_s
        self.fsync = fsync
        self._lock = threading.RLock()
        self._offset = 0
        self._pending = b""  # trailing partial line awaiting its newline
        self._events: list[dict] = []
        self._active: dict[str, int] = {}
        self._registered: dict[str, dict[int, str | None]] = {}
        self._retired: dict[str, set[int]] = {}
        self._damaged_lines = 0
        self._last_poll = 0.0
        self.refresh(force=True)

    # -- reading ---------------------------------------------------------

    def refresh(self, force: bool = False) -> int:
        """Fold any new journal bytes in; returns the new-event count.

        Throttled by ``poll_s`` unless forced. A journal that shrank
        (external truncation) is re-read from the start.
        """
        now = time.monotonic()
        with self._lock:
            if not force and now - self._last_poll < self.poll_s:
                return 0
            self._last_poll = now
            try:
                size = self.path.stat().st_size
            except OSError:
                return 0
            if size < self._offset:
                self._reset_state()
            if size == self._offset:
                return 0
            try:
                with self.path.open("rb") as fh:
                    fh.seek(self._offset)
                    chunk = fh.read(size - self._offset)
            except OSError:
                return 0
            self._offset += len(chunk)
            data = self._pending + chunk
            lines = data.split(b"\n")
            self._pending = lines.pop()  # b"" when data ends in newline
            applied = 0
            for line in lines:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict) or "event" not in record:
                        raise ValueError("not an event object")
                except ValueError:
                    self._damaged_lines += 1
                    continue
                self._apply(record)
                applied += 1
            return applied

    def _reset_state(self) -> None:
        self._offset = 0
        self._pending = b""
        self._events = []
        self._active = {}
        self._registered = {}
        self._retired = {}
        self._damaged_lines = 0

    def _apply(self, record: dict) -> None:
        self._events.append(record)
        event = record.get("event")
        model = record.get("model")
        if not isinstance(model, str):
            return
        version = record.get("version")
        if event == "register" and isinstance(version, int):
            self._registered.setdefault(model, {})[version] = record.get(
                "trained_at_key"
            )
        elif event == "promote" and isinstance(version, int):
            self._active[model] = version
            self._retired.setdefault(model, set()).discard(version)
        elif event == "rollback" and isinstance(version, int):
            self._active[model] = version
            retired_from = record.get("from_version")
            if isinstance(retired_from, int):
                # A rolled-back-from version was rejected in production:
                # it stops being a shadow candidate.
                self._retired.setdefault(model, set()).add(retired_from)

    # -- writing ---------------------------------------------------------

    def append(self, event: str, model: str, **fields: Any) -> dict:
        """Append one event (fsync'd) and return the full record."""
        with self._lock:
            self.refresh(force=True)
            record = {
                "seq": len(self._events) + self._damaged_lines + 1,
                "ts": round(time.time(), 3),
                "event": event,
                "model": model,
                **fields,
            }
            line = json.dumps(record, sort_keys=True) + "\n"
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
                if self.fsync:
                    os.fsync(fh.fileno())
            self.refresh(force=True)
            return record

    # -- derived state ---------------------------------------------------

    def active_version(self, model: str, refresh: bool = True) -> int:
        """The version serving live traffic for ``model`` (default 1)."""
        if refresh:
            self.refresh()
        with self._lock:
            return self._active.get(model, 1)

    def candidate_version(self, model: str, refresh: bool = True) -> int | None:
        """The newest registered, non-retired version ahead of active."""
        if refresh:
            self.refresh()
        with self._lock:
            active = self._active.get(model, 1)
            retired = self._retired.get(model, set())
            ahead = [
                v
                for v in self._registered.get(model, {})
                if v > active and v not in retired
            ]
            return max(ahead) if ahead else None

    def registered_versions(self, model: str) -> dict[int, str | None]:
        """``{version: trained_at_key}`` of every registered snapshot."""
        self.refresh()
        with self._lock:
            return dict(self._registered.get(model, {}))

    def max_version(self, model: str) -> int:
        """Highest version the journal knows (1 when none registered)."""
        self.refresh()
        with self._lock:
            versions = self._registered.get(model, {})
            return max([1, self._active.get(model, 1), *versions])

    def previous_active(self, model: str) -> int:
        """The version active before the most recent promote (default 1)."""
        self.refresh()
        with self._lock:
            for record in reversed(self._events):
                if record.get("model") == model and record.get("event") == "promote":
                    prior = record.get("from_version")
                    return int(prior) if isinstance(prior, int) else 1
            return 1

    def history(self, model: str | None = None) -> list[dict]:
        """Every journal event (optionally for one model), oldest first."""
        self.refresh()
        with self._lock:
            return [
                dict(e)
                for e in self._events
                if model is None or e.get("model") == model
            ]

    @property
    def damaged_lines(self) -> int:
        """Journal lines skipped as unparseable (torn/corrupt writes)."""
        with self._lock:
            return self._damaged_lines


class DriftDetector:
    """Threshold rules over rolling metric windows for one (scenario, model).

    Built on the observability layer's window machinery: the detector
    keeps the :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` taken
    at the start of the current window; :meth:`check` diffs it against a
    fresh snapshot (:meth:`~repro.obs.metrics.MetricsRegistry.delta`) to
    get the window's exact mean prediction error and feature means
    (Δsum / Δcount of the feedback histograms). The first completed
    window after (re)activation becomes the *reference*; later windows
    fire when

    * ``error`` rule — window mean absolute fractional error exceeds
      ``error_floor``, or ``error_ratio`` × the reference mean;
    * ``feature:<name>`` rule — a feature's window mean drifts more
      than ``feature_tolerance`` (relative) from the reference mean.

    A fired rule latches ``repro_drift_active`` at 1 until
    :meth:`reset` (promote/rollback clear it).
    """

    def __init__(
        self,
        scenario_label: str,
        model: str,
        metrics: MetricsRegistry = REGISTRY,
        min_window: int = 32,
        error_floor: float = 0.35,
        error_ratio: float = 1.5,
        feature_tolerance: float = 0.25,
        features: Sequence[str] = ("nodes", "req_walltime_s"),
    ) -> None:
        if min_window < 1:
            raise ServeError("drift min_window must be >= 1")
        self.scenario = scenario_label
        self.model = model
        self.metrics = metrics
        self.min_window = min_window
        self.error_floor = error_floor
        self.error_ratio = error_ratio
        self.feature_tolerance = feature_tolerance
        self.features = tuple(features)
        self._gauge = metrics.gauge(
            "repro_drift_active",
            "1 while a drift rule is latched for (scenario, model).",
            labelnames=("scenario", "model"),
        )
        self._events = metrics.counter(
            "repro_drift_events_total",
            "Drift-rule firings by (scenario, model, rule).",
            labelnames=("scenario", "model", "rule"),
        )
        self._lock = threading.Lock()
        self._window_start = metrics.snapshot()
        self._reference: dict[str, float] | None = None
        self._latched = False
        self._gauge.set(0, scenario=self.scenario, model=self.model)

    # -- window plumbing -------------------------------------------------

    def _labels_error(self) -> tuple[str, str]:
        return (self.scenario, self.model)

    def _window_stats(self, delta: Mapping[str, Mapping]) -> dict[str, float] | None:
        """Exact window means from a snapshot delta, or None if short."""
        err_count = delta.get("repro_feedback_abs_error_count", {}).get(
            self._labels_error(), 0.0
        )
        if err_count < self.min_window:
            return None
        err_sum = delta.get("repro_feedback_abs_error_sum", {}).get(
            self._labels_error(), 0.0
        )
        stats = {"count": err_count, "error_mean": err_sum / err_count}
        for feature in self.features:
            key = (self.scenario, feature)
            n = delta.get("repro_feedback_feature_count", {}).get(key, 0.0)
            total = delta.get("repro_feedback_feature_sum", {}).get(key, 0.0)
            stats[f"feature_{feature}"] = total / n if n else 0.0
        return stats

    def check(self) -> dict[str, Any] | None:
        """Evaluate the rules if the current window is complete.

        Returns the drift event payload when a rule fired, else None.
        Called by the lifecycle manager after each feedback batch —
        never on the serving hot path.
        """
        with self._lock:
            delta = MetricsRegistry.delta(self._window_start, self.metrics.snapshot())
            stats = self._window_stats(delta)
            if stats is None:
                return None
            # Window complete: roll to the next one regardless of outcome.
            self._window_start = self.metrics.snapshot()
            if self._reference is None:
                self._reference = stats
                return None
            fired: list[str] = []
            ref = self._reference
            if stats["error_mean"] >= self.error_floor or (
                ref["error_mean"] > 0
                and stats["error_mean"] >= self.error_ratio * ref["error_mean"]
            ):
                fired.append("error")
            for feature in self.features:
                key = f"feature_{feature}"
                base = abs(ref.get(key, 0.0))
                if base > 0 and abs(stats[key] - ref[key]) > self.feature_tolerance * base:
                    fired.append(f"feature:{feature}")
            if not fired:
                return None
            self._latched = True
            self._gauge.set(1, scenario=self.scenario, model=self.model)
            for rule in fired:
                self._events.inc(scenario=self.scenario, model=self.model, rule=rule)
            return {
                "rules": fired,
                "window": {k: round(v, 6) for k, v in stats.items()},
                "reference": {k: round(v, 6) for k, v in ref.items()},
            }

    @property
    def latched(self) -> bool:
        """True while a fired rule has not been reset."""
        with self._lock:
            return self._latched

    def reset(self) -> None:
        """Clear the latch and start a fresh reference (post-promote)."""
        with self._lock:
            self._latched = False
            self._reference = None
            self._window_start = self.metrics.snapshot()
            self._gauge.set(0, scenario=self.scenario, model=self.model)


class ModelLifecycle:
    """The per-scenario lifecycle manager: learner, journal, detectors.

    Parameters
    ----------
    scenario:
        The scenario this manager governs (anything
        :func:`repro.spec.as_scenario` accepts).
    registry:
        The :class:`~repro.serve.registry.ModelRegistry` versions are
        stored in (shared with the service); built against ``cache_dir``
        when omitted.
    lifecycle_dir:
        Root for the journal and feedback log; defaults to
        ``<cache root>/lifecycle``. Each scenario gets its own
        subdirectory keyed by dataset digest, so every process (and
        forked worker) pointing at the same cache shares one journal.
    watch_models:
        Models whose prediction error feeds the drift windows. The
        ``online`` model is evaluated prequentially through the live
        learner; estimator models are evaluated with one vectorized
        predict per feedback batch (off the serving path).
    seed_learner_from_active:
        Seed the live online learner from the active ``online``
        artifact's frozen state (the production default). ``False``
        starts it empty — a pure fold over the feedback stream.
    metrics:
        Metrics registry for feedback/drift/shadow series (the
        process-wide default; tests may isolate with a private one).
    """

    def __init__(
        self,
        scenario: "ScenarioSpec | Mapping | str" = "emmy",
        registry: ModelRegistry | None = None,
        cache_dir=None,
        lifecycle_dir=None,
        watch_models: Sequence[str] = ("online",),
        seed_learner_from_active: bool = True,
        metrics: MetricsRegistry = REGISTRY,
        min_window: int = 32,
        error_floor: float = 0.35,
        error_ratio: float = 1.5,
        feature_tolerance: float = 0.25,
        journal_poll_s: float = 0.05,
        fsync: bool = True,
    ) -> None:
        self.scenario = as_scenario(scenario)
        self.registry = registry or ModelRegistry(cache_dir=cache_dir)
        for model in watch_models:
            self.registry.check_model_name(model)
        self.watch_models = tuple(watch_models)
        self.seed_learner_from_active = seed_learner_from_active
        self.metrics = metrics
        root = (
            Path(lifecycle_dir)
            if lifecycle_dir is not None
            else default_lifecycle_dir(self.registry.cache.root)
        )
        self.dir = root / self.scenario.dataset_digest[:16]
        self.dir.mkdir(parents=True, exist_ok=True)
        self.journal = LineageJournal(
            self.dir / "journal.jsonl", poll_s=journal_poll_s, fsync=fsync
        )
        self.feedback_path = self.dir / "feedback.jsonl"
        self.scenario_label = self.scenario.dataset_digest[:12]
        self._lock = threading.RLock()
        self._learner = None  # live OnlinePowerPredictor, lazily seeded
        self._learner_seed_version: int | None = None
        self._drift_kwargs = {
            "min_window": min_window,
            "error_floor": error_floor,
            "error_ratio": error_ratio,
            "feature_tolerance": feature_tolerance,
        }
        self._detectors: dict[str, DriftDetector] = {}
        # Feedback / shadow metric families (get-or-create: shared with
        # every manager on the same metrics registry).
        self._m_feedback = metrics.counter(
            "repro_feedback_records_total",
            "Observed-outcome feedback records ingested, per scenario.",
            labelnames=("scenario",),
        )
        self._m_error = metrics.histogram(
            "repro_feedback_abs_error",
            "Absolute fractional prediction error on feedback records, "
            "per (scenario, model) — the drift detector's error window.",
            buckets=ERROR_BUCKETS,
            labelnames=("scenario", "model"),
        )
        self._m_feature = metrics.histogram(
            "repro_feedback_feature",
            "Feedback job feature values, per (scenario, feature) — the "
            "drift detector's feature-distribution window.",
            buckets=FEATURE_BUCKETS,
            labelnames=("scenario", "feature"),
        )
        self._m_shadow = metrics.histogram(
            "repro_shadow_abs_diff",
            "Absolute fractional difference between the candidate's and "
            "the active version's predictions on mirrored live traffic.",
            buckets=ERROR_BUCKETS,
            labelnames=("scenario", "model"),
        )
        self._m_shadow_n = metrics.counter(
            "repro_shadow_requests_total",
            "Live records mirrored to a shadow candidate.",
            labelnames=("scenario", "model"),
        )
        self._m_shadow_drop = metrics.counter(
            "repro_shadow_dropped_total",
            "Mirrored records dropped (full candidate queue, predict "
            "failure) — shadow loss never touches the live path.",
            labelnames=("scenario", "model"),
        )
        self._m_events = metrics.counter(
            "repro_lifecycle_events_total",
            "Journal events appended, by event type.",
            labelnames=("event",),
        )
        self._m_active = metrics.gauge(
            "repro_active_version",
            "Active lineage version per (scenario, model).",
            labelnames=("scenario", "model"),
        )
        # Detectors start watching *now*: created eagerly so the very
        # first feedback batch counts toward the reference window (a
        # lazy detector would snapshot after that batch and lose it).
        for model in self.watch_models:
            self.detector(model)

    # -- addressing ------------------------------------------------------

    def active_version(self, model: str) -> int:
        """The journal's active pointer for ``model`` (default 1)."""
        return self.journal.active_version(model)

    def candidate_version(self, model: str) -> int | None:
        """The registered version currently shadow-evaluating, if any."""
        return self.journal.candidate_version(model)

    def detector(self, model: str) -> DriftDetector:
        """The (lazily created) drift detector for one watched model."""
        with self._lock:
            detector = self._detectors.get(model)
            if detector is None:
                detector = DriftDetector(
                    self.scenario_label, model, metrics=self.metrics,
                    **self._drift_kwargs,
                )
                self._detectors[model] = detector
            return detector

    # -- feedback ingest -------------------------------------------------

    def _ensure_learner(self):
        from repro.ml import OnlinePowerPredictor

        with self._lock:
            if self._learner is None:
                if self.seed_learner_from_active:
                    active = self.active_version("online")
                    servable = self.registry.get(self.scenario, "online", active)
                    self._learner = servable.predictor.copy()
                    self._learner_seed_version = active
                else:
                    self._learner = OnlinePowerPredictor()
                    self._learner_seed_version = None
            return self._learner

    @staticmethod
    def _validate_feedback(records: Sequence[Mapping]) -> None:
        if not records:
            raise ServeError("feedback needs at least one record")
        for i, record in enumerate(records):
            missing = [f for f in FEEDBACK_FIELDS if f not in record]
            if missing:
                raise ServeError(f"feedback record {i} lacks fields {missing}")
            try:
                power = float(record["power_w"])
                int(record["nodes"])
                float(record["req_walltime_s"])
            except (TypeError, ValueError):
                raise ServeError(
                    f"feedback record {i}: nodes, req_walltime_s and "
                    "power_w must be numeric"
                ) from None
            if power <= 0:
                raise ServeError(f"feedback record {i}: power_w must be positive")

    def feedback(self, records: Sequence[Mapping]) -> dict[str, Any]:
        """Ingest observed outcomes: log, learn, and check for drift.

        Prequential and deterministic: each record is predicted *before*
        it is folded into the live online learner, in feed order, so the
        learner state after a feed is a pure function of the feed. The
        error and feature histograms drive the drift windows; completed
        windows are checked once per batch (never on the serving path).
        Returns ``{"accepted", "learner_jobs", "drift": [events...]}``.
        """
        self._validate_feedback(records)
        with trace_span("lifecycle.feedback", n_records=len(records)):
            with self._lock:
                learner = self._ensure_learner()
                lines: list[str] = []
                for record in records:
                    user = str(record["user"])
                    nodes = int(record["nodes"])
                    wall = int(float(record["req_walltime_s"]))
                    actual = float(record["power_w"])
                    predicted = learner.predict(user, nodes, wall)
                    error = (
                        abs(actual - predicted) / actual if predicted > 0 else 1.0
                    )
                    learner.observe(user, nodes, wall, actual)
                    self._m_error.observe(
                        error, scenario=self.scenario_label, model="online"
                    )
                    self._m_feature.observe(
                        nodes, scenario=self.scenario_label, feature="nodes"
                    )
                    self._m_feature.observe(
                        wall, scenario=self.scenario_label, feature="req_walltime_s"
                    )
                    lines.append(
                        json.dumps(
                            {
                                "user": user,
                                "nodes": nodes,
                                "req_walltime_s": wall,
                                "power_w": actual,
                            },
                            sort_keys=True,
                        )
                    )
                self._m_feedback.inc(len(records), scenario=self.scenario_label)
                self._score_watched_estimators(records)
                with self.feedback_path.open("a", encoding="utf-8") as fh:
                    fh.write("\n".join(lines) + "\n")
                    fh.flush()
                drift_events = self._check_drift()
                return {
                    "accepted": len(records),
                    "learner_jobs": learner.jobs_seen,
                    "drift": drift_events,
                }

    def _score_watched_estimators(self, records: Sequence[Mapping]) -> None:
        """Fold the active estimators' batch errors into the windows."""
        for model in self.watch_models:
            if model == "online":
                continue  # scored prequentially through the learner
            try:
                servable = self.registry.get(
                    self.scenario, model, self.active_version(model)
                )
                predictions = servable.predict_records(records)
            except Exception:  # noqa: BLE001 — scoring must not fail ingest
                continue
            for record, predicted in zip(records, predictions):
                actual = float(record["power_w"])
                error = (
                    abs(actual - float(predicted)) / actual if predicted > 0 else 1.0
                )
                self._m_error.observe(
                    error, scenario=self.scenario_label, model=model
                )

    def _check_drift(self) -> list[dict[str, Any]]:
        events = []
        for model in self.watch_models:
            fired = self.detector(model).check()
            if fired is None:
                continue
            record = self.journal.append(
                "drift",
                model,
                version=self.active_version(model),
                rules=fired["rules"],
                window=fired["window"],
                reference=fired["reference"],
            )
            self._m_events.inc(event="drift")
            _LOG.warning(
                "drift detected",
                scenario=self.scenario_label,
                model=model,
                rules=fired["rules"],
                window=fired["window"],
            )
            events.append(record)
        return events

    def drift_active(self, model: str) -> bool:
        """Is the drift gauge latched for ``model``?"""
        with self._lock:
            detector = self._detectors.get(model)
        return detector.latched if detector is not None else False

    def learner_digest(self) -> str:
        """SHA-256 of the live learner state (prequential determinism)."""
        return self._ensure_learner().state_digest()

    # -- candidates / promote / rollback ---------------------------------

    def create_candidate(
        self, model: str = "online", who: str = "", why: str = ""
    ) -> int:
        """Freeze a new immutable version and register it for shadowing.

        For ``online`` the candidate is a snapshot of the live
        feedback-updated learner; estimator models retrain from the
        frozen scenario dataset (deterministic). Returns the new
        version number; the journal records the artifact key.
        """
        self.registry.check_model_name(model)
        with self._lock:
            # Next free slot past both the journal's lineage AND any
            # artifact already on disk — a reset journal over a
            # persistent cache must not collide with old snapshots.
            stored = self.registry.versions(self.scenario, model)
            version = max(self.journal.max_version(model) + 1, max(stored) + 1, 2)
            extras: dict[str, Any] = {}
            if model == "online":
                learner = self._ensure_learner()
                servable = OnlineServable(learner.copy(), n_train=learner.jobs_seen)
                extras["state_digest"] = learner.state_digest()
            else:
                servable = self.registry.train(self.scenario, model)
            disk_key = self.registry.put(
                self.scenario, model, servable, version,
                meta={"who": who, "why": why},
            )
            record = self.journal.append(
                "register",
                model,
                version=version,
                trained_at_key=disk_key,
                who=who,
                why=why,
                n_train=servable.n_train,
                **extras,
            )
            self._m_events.inc(event="register")
            _LOG.info(
                "candidate registered",
                scenario=self.scenario_label,
                model=model,
                version=version,
                seq=record["seq"],
            )
            return version

    def promote(
        self, model: str, version: int, who: str = "", why: str = ""
    ) -> dict[str, Any]:
        """Flip the active pointer to ``version``; record the evidence.

        The shadow-evaluation report at promote time rides in the
        journal event, so the audit trail answers "why was this version
        trusted?" as well as who/when. Resets the drift detector (the
        new version starts a fresh reference window).
        """
        self.registry.check_model_name(model)
        with self._lock:
            current = self.active_version(model)
            if version == current:
                raise ServeError(
                    f"model {model!r} version {version} is already active"
                )
            if not self.registry.has_version(self.scenario, model, version):
                raise ServeError(
                    f"model {model!r} version {version} has no stored "
                    "artifact; create_candidate first"
                )
            record = self.journal.append(
                "promote",
                model,
                version=version,
                from_version=current,
                who=who,
                why=why,
                evidence=self.shadow_report(model),
            )
            self._finish_flip(model, version)
            self._m_events.inc(event="promote")
            _LOG.info(
                "promoted", scenario=self.scenario_label, model=model,
                version=version, from_version=current,
            )
            return record

    def rollback(
        self,
        model: str,
        to_version: int | None = None,
        who: str = "",
        why: str = "",
    ) -> dict[str, Any]:
        """Restore a previous version (default: the pre-promote active).

        Because versions are immutable artifacts, serving after a
        rollback is *bit-identical* to serving before the promote. The
        rolled-back-from version is retired: it stops being a shadow
        candidate until re-registered.
        """
        self.registry.check_model_name(model)
        with self._lock:
            current = self.active_version(model)
            target = (
                int(to_version)
                if to_version is not None
                else self.journal.previous_active(model)
            )
            if target == current:
                raise ServeError(
                    f"model {model!r} is already at version {target}"
                )
            if not self.registry.has_version(self.scenario, model, target):
                raise ServeError(
                    f"model {model!r} version {target} has no stored artifact"
                )
            record = self.journal.append(
                "rollback",
                model,
                version=target,
                from_version=current,
                who=who,
                why=why,
            )
            self._finish_flip(model, target)
            if model == "online":
                # Re-seed the live learner so future feedback continues
                # from the restored state, not the rejected one.
                servable = self.registry.get(self.scenario, model, target)
                self._learner = servable.predictor.copy()
                self._learner_seed_version = target
            self._m_events.inc(event="rollback")
            _LOG.warning(
                "rolled back", scenario=self.scenario_label, model=model,
                version=target, from_version=current,
            )
            return record

    def _finish_flip(self, model: str, version: int) -> None:
        self._m_active.set(version, scenario=self.scenario_label, model=model)
        with self._lock:
            detector = self._detectors.get(model)
        if detector is not None:
            detector.reset()

    # -- shadow accounting -----------------------------------------------

    def record_shadow(self, model: str, live_value: float, future) -> None:
        """Done-callback folding one mirrored prediction into the stats.

        Runs on the candidate batcher's worker thread — never on the
        live request path. Failures count as drops; they never raise.
        """
        try:
            candidate_value = float(future.result())
        except BaseException:  # noqa: BLE001 — shadow loss is non-fatal
            self._m_shadow_drop.inc(scenario=self.scenario_label, model=model)
            return
        base = abs(live_value)
        diff = abs(candidate_value - live_value) / base if base > 0 else 0.0
        self._m_shadow.observe(diff, scenario=self.scenario_label, model=model)
        self._m_shadow_n.inc(scenario=self.scenario_label, model=model)

    def count_shadow_drop(self, model: str) -> None:
        """Count a mirror that could not even be submitted (full queue)."""
        self._m_shadow_drop.inc(scenario=self.scenario_label, model=model)

    def shadow_report(self, model: str) -> dict[str, Any] | None:
        """Paired live/candidate evidence accumulated so far, or None."""
        labels = {"scenario": self.scenario_label, "model": model}
        n = self._m_shadow.count(**labels)
        if n == 0:
            return None
        return {
            "candidate": self.candidate_version(model),
            "n": int(n),
            "dropped": int(self._m_shadow_drop.value(**labels)),
            "mean_abs_diff": round(self._m_shadow.mean(**labels), 6),
            "p50_abs_diff": round(self._m_shadow.quantile(0.5, **labels), 6),
            "p99_abs_diff": round(self._m_shadow.quantile(0.99, **labels), 6),
        }

    # -- inspection ------------------------------------------------------

    def lineage(self) -> list[dict[str, Any]]:
        """Per-model lineage rows (the ``/v1/models`` payload core)."""
        rows = []
        for model in SERVE_MODELS:
            active = self.active_version(model)
            registered = self.journal.registered_versions(model)
            trained_at_key = registered.get(active)
            if trained_at_key is None and active == 1:
                trained_at_key = self.registry.model_key(self.scenario, model, 1)
            candidate = self.candidate_version(model)
            rows.append(
                {
                    "model": model,
                    "active": active,
                    "versions": sorted({1, active, *registered}),
                    "candidate": candidate,
                    "trained_at_key": trained_at_key,
                    "shadow": self.shadow_report(model),
                    "drift": self.drift_active(model),
                }
            )
        return rows

    def summary(self) -> dict[str, Any]:
        """Structured manager state (``stats()``, smoke harness)."""
        learner = self._learner
        return {
            "dir": str(self.dir),
            "journal_events": len(self.journal.history()),
            "journal_damaged_lines": self.journal.damaged_lines,
            "learner_jobs": learner.jobs_seen if learner is not None else 0,
            "watch_models": list(self.watch_models),
            "active": {
                model: self.active_version(model) for model in SERVE_MODELS
            },
        }

    def history(self, model: str | None = None) -> list[dict]:
        """The audit trail (journal events), oldest first."""
        return self.journal.history(model)


def replay_feedback(
    lifecycle: ModelLifecycle,
    jobs,
    limit: int | None = None,
    batch: int = 256,
) -> dict[str, Any]:
    """Feed a job table's completed jobs to the lifecycle in submit order.

    The offline replay driver: sorts ``jobs`` (a
    :class:`~repro.frames.Table` with the dataset's job columns) by
    ``submit_s`` and streams them through
    :meth:`ModelLifecycle.feedback` in batches — exactly what a live
    scheduler hook would send as jobs complete. Deterministic: the same
    table and ``limit`` produce a bit-identical learner state.
    Returns ``{"replayed", "learner_jobs", "drift_events"}``.
    """
    if batch < 1:
        raise ValidationError("replay batch must be >= 1")
    required = {"user", "nodes", "req_walltime_s", "submit_s", "pernode_power_w"}
    missing = required - set(jobs.column_names)
    if missing:
        raise ValidationError(f"job table lacks columns {sorted(missing)}")
    ordered = jobs.sort_by("submit_s")
    n = len(ordered) if limit is None else min(int(limit), len(ordered))
    users = ordered["user"]
    nodes = ordered["nodes"]
    walls = ordered["req_walltime_s"]
    power = ordered["pernode_power_w"].astype(float)
    drift_events: list[dict] = []
    done = 0
    while done < n:
        stop = min(done + batch, n)
        records = [
            {
                "user": str(users[i]),
                "nodes": int(nodes[i]),
                "req_walltime_s": int(walls[i]),
                "power_w": float(power[i]),
            }
            for i in range(done, stop)
        ]
        outcome = lifecycle.feedback(records)
        drift_events.extend(outcome["drift"])
        done = stop
    return {
        "replayed": done,
        "learner_jobs": lifecycle._ensure_learner().jobs_seen,
        "drift_events": drift_events,
    }
