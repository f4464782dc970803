"""Model registry: trained predictors keyed by dataset content address.

A served model's identity is the full lineage tuple ``(dataset digest,
model name, code version, lineage version)``:

* the **dataset digest** is exactly the pipeline cache key of the
  scenario's ``dataset`` stage
  (:attr:`repro.spec.ScenarioSpec.dataset_digest`) — two scenarios that
  hash to the same dataset share trained models;
* the **code version** (:data:`_MODEL_VERSIONS`) invalidates cached
  artifacts when training *semantics* change;
* the **lineage version** distinguishes successive trained states of
  the *same* model under the lifecycle layer
  (docs/LIFECYCLE.md): version 1 is the base artifact trained from the
  scenario dataset, versions 2+ are immutable snapshots committed via
  :meth:`ModelRegistry.put` (e.g. a feedback-updated online predictor).
  Which version serves live traffic is *not* the registry's business —
  the :class:`~repro.serve.lifecycle.LineageJournal` owns the ``active``
  pointer; the registry only stores and retrieves immutable artifacts.

Every component of the identity is threaded through **both** the warm
LRU key and the on-disk content key, so bumping either version can
never serve a stale warm entry (the PR-8 eviction fix).

Lookup order on :meth:`ModelRegistry.get`:

1. **warm LRU** — an in-memory ``OrderedDict`` of fitted predictors;
2. **artifact cache** — pickled predictors stored under the ``model``
   stage of the same :class:`~repro.pipeline.ArtifactCache` the pipeline
   uses (``pipeline status`` lists them, ``pipeline clean --stage model``
   drops them);
3. **train** — version 1 only: build the scenario's dataset through the
   cached pipeline (:func:`repro.pipeline.build_dataset`), fit via the
   shared :func:`repro.ml.fit_predictor` path, commit to the artifact
   cache. Versions 2+ are snapshots, not re-derivable — a missing
   artifact raises instead of silently retraining something different.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import CacheError, ServeError, ValidationError
from repro.faults.injector import maybe_fire
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY
from repro.obs.tracing import trace_span
from repro.spec import ScenarioSpec

__all__ = [
    "MODEL_STAGE",
    "SERVE_MODELS",
    "MeanPowerServable",
    "OnlineServable",
    "ModelRegistry",
]

MODEL_STAGE = "model"

# Bump a model's version to invalidate its cached fitted artifacts when
# training semantics or the fitted state change (mirrors pipeline
# STAGE_VERSIONS). KNN 2: fit keeps the scaled training terms.
_MODEL_VERSIONS: dict[str, int] = {
    "BDT": 1,
    "KNN": 2,
    "FLDA": 1,
    "GPU": 1,
    "FAIL": 1,
    "online": 1,
}

#: The model names the serving layer can train: the paper models on the
#: per-node power track, the heterogeneous tracks' BDTs (``GPU`` board
#: power, ``FAIL`` failure probability — docs/SCENARIOS.md), and the
#: deployment-order hierarchical-mean predictor.
SERVE_MODELS: tuple[str, ...] = tuple(_MODEL_VERSIONS)

# Models backed by a fitted DecisionTreeRegressor: these get the
# array-backed FlatBDT inference swap in _specialize.
_TREE_BACKED = ("BDT", "GPU", "FAIL")

_ONLINE_FIELDS = ("user", "nodes", "req_walltime_s")

# Mean node draw as a fraction of TDP when even the scenario dataset is
# unbuildable — roughly the production mean the paper reports (Fig 3).
_FALLBACK_TDP_FRACTION = 0.6

# Registry observability (docs/OBSERVABILITY.md): where lookups were
# served from (warm LRU / disk artifact / fresh training) and how long
# training takes when it happens.
_LOOKUPS = REGISTRY.counter(
    "repro_model_registry_lookups_total",
    "Registry gets by source: hit (warm LRU), disk (artifact cache), "
    "trained (fresh fit).",
    labelnames=("outcome",),
)
_TRAIN_SECONDS = REGISTRY.histogram(
    "repro_model_train_seconds",
    "Wall time of one model training (dataset build + fit).",
    buckets=DEFAULT_SECONDS_BUCKETS,
    labelnames=("model",),
)


class OnlineServable:
    """The A4 online hierarchical-mean model in servable form.

    Wraps an :class:`~repro.ml.OnlinePowerPredictor` whose levels were
    populated by one submit-order sweep over the scenario's job table.
    Unlike the estimator models it backs off gracefully for users it has
    never seen (``known_users`` is ``None`` — no pre-validation needed).
    """

    model_name = "online"
    known_users: frozenset[str] | None = None

    def __init__(self, predictor, n_train: int) -> None:
        self._predictor = predictor
        self.n_train = n_train

    @property
    def predictor(self):
        """The wrapped :class:`~repro.ml.OnlinePowerPredictor`.

        The lifecycle layer reads this to seed its live learner from the
        active version's frozen state (a copy — the artifact itself is
        immutable).
        """
        return self._predictor

    def predict_records(self, records: Sequence[Mapping]) -> np.ndarray:
        """Per-record hierarchical-mean lookups (O(1) each)."""
        missing = [f for f in _ONLINE_FIELDS if any(f not in r for r in records)]
        if missing:
            raise ValidationError(f"records lack feature fields {missing}")
        return np.asarray(
            [
                self._predictor.predict(
                    str(r["user"]), int(r["nodes"]), int(r["req_walltime_s"])
                )
                for r in records
            ],
            dtype=float,
        )


class MeanPowerServable:
    """Degraded-mode baseline: one mean per-node power for every job.

    When the registry cannot produce the requested model (training keeps
    failing under injected or real faults), the service answers from
    this constant-mean predictor instead of erroring — the paper's
    "deployment order" ends at exactly this baseline. Responses built
    from it carry ``degraded: true`` (docs/FAULTS.md).
    """

    model_name = "mean-baseline"
    known_users: frozenset[str] | None = None

    def __init__(self, mean_power_w: float, n_train: int = 0) -> None:
        if not mean_power_w > 0:
            raise ServeError("mean baseline needs a positive mean power")
        self.mean_power_w = float(mean_power_w)
        self.n_train = n_train

    def predict_records(self, records: Sequence[Mapping]) -> np.ndarray:
        """The scenario-wide mean, once per record."""
        return np.full(len(records), self.mean_power_w, dtype=float)


def _fit_online(jobs) -> OnlineServable:
    from repro.ml import OnlinePowerPredictor

    predictor = OnlinePowerPredictor()
    ordered = jobs.sort_by("submit_s")
    users = ordered["user"]
    nodes = ordered["nodes"]
    walls = ordered["req_walltime_s"]
    power = ordered["pernode_power_w"].astype(float)
    for i in range(len(ordered)):
        predictor.observe(users[i], int(nodes[i]), int(walls[i]), float(power[i]))
    return OnlineServable(predictor, n_train=len(ordered))


class ModelRegistry:
    """Warm LRU + artifact-cache-backed store of fitted predictors.

    Parameters
    ----------
    cache_dir:
        Artifact cache root shared with the pipeline (default:
        :func:`repro.pipeline.default_cache_dir`). ``None`` with
        ``use_disk=False`` keeps everything in memory.
    capacity:
        Warm-LRU size in fitted models; the least recently served model
        is evicted first (its disk artifact survives).
    use_disk:
        Disable to skip the artifact cache entirely (tests).
    load_retries / retry_backoff_s:
        Resilience knobs for disk loads: a failed artifact read (IO
        error, injected ``cache.read`` fault, corrupted pickle) is
        retried up to ``load_retries`` times with exponential backoff
        starting at ``retry_backoff_s``; if every attempt fails the
        registry falls back to retraining instead of erroring.
    """

    def __init__(
        self,
        cache_dir=None,
        capacity: int = 8,
        use_disk: bool = True,
        load_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ) -> None:
        if capacity < 1:
            raise ServeError("registry capacity must be >= 1")
        if load_retries < 0:
            raise ServeError("load_retries must be >= 0")
        from repro.pipeline import ArtifactCache, default_cache_dir

        self.capacity = capacity
        self.use_disk = use_disk
        self.load_retries = load_retries
        self.retry_backoff_s = retry_backoff_s
        self.cache = ArtifactCache(cache_dir if cache_dir is not None else default_cache_dir())
        # LRU keys carry the full lineage (digest, model, code version,
        # lineage version) — the same components as the disk key — so a
        # version bump can never hit a stale warm entry.
        self._lru: "OrderedDict[tuple[str, str, int, int], Any]" = OrderedDict()
        self._fallbacks: dict[str, MeanPowerServable] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.disk_loads = 0
        self.trained = 0
        self.load_failures = 0  # disk-load attempts that raised
        self.store_failures = 0  # artifact commits that raised (non-fatal)
        self.dataset_fallbacks = 0  # cached builds that fell back in-memory
        self.last_train_seconds = 0.0

    # -- addressing ------------------------------------------------------

    @staticmethod
    def check_model_name(model: str) -> str:
        """Validate and return ``model``; raises ServeError when unknown."""
        if not isinstance(model, str) or model not in _MODEL_VERSIONS:
            raise ServeError(
                f"unknown model {model!r}; known: {list(SERVE_MODELS)}"
            )
        return model

    @staticmethod
    def check_version(version: int) -> int:
        """Validate and return a lineage ``version`` (must be >= 1)."""
        try:
            version = int(version)
        except (TypeError, ValueError):
            raise ServeError(
                f"model version must be an integer, got {version!r}"
            ) from None
        if version < 1:
            raise ServeError(f"model version must be >= 1, got {version}")
        return version

    def model_key(self, scenario: ScenarioSpec, model: str, version: int = 1) -> str:
        """Content address of one (scenario dataset, model, version) artifact.

        Version 1 (the base artifact trained from the scenario dataset)
        keys exactly as before the lifecycle redesign, so pre-existing
        on-disk caches stay valid; versions 2+ add the lineage field.
        """
        from repro.pipeline.cache import content_key

        self.check_model_name(model)
        version = self.check_version(version)
        payload = {
            "format": 1,
            "stage": MODEL_STAGE,
            "dataset": scenario.dataset_digest,
            "model": model,
            "version": _MODEL_VERSIONS[model],
        }
        if version != 1:
            payload["lineage"] = version
        return content_key(payload)

    # -- lookup / training -----------------------------------------------

    def get(self, spec: ScenarioSpec, model: str = "BDT", version: int = 1):
        """The fitted predictor for (scenario, model, version).

        Version 1 trains on first use; versions 2+ are immutable
        lifecycle snapshots and raise :class:`~repro.errors.ServeError`
        when their artifact is missing (they cannot be re-derived).
        Thread-safe; concurrent misses on the same key train once.
        """
        self.check_model_name(model)
        version = self.check_version(version)
        key = (spec.dataset_digest, model, _MODEL_VERSIONS[model], version)
        with self._lock:
            servable = self._lru.get(key)
            if servable is not None:
                self._lru.move_to_end(key)
                self.hits += 1
                _LOOKUPS.inc(outcome="hit")
                return servable
            self.misses += 1
            disk_key = self.model_key(spec, model, version)
            servable = self._load_cached(disk_key) if self.use_disk else None
            if servable is None:
                if version != 1:
                    raise ServeError(
                        f"model {model!r} version {version} for scenario "
                        f"{spec.label} has no stored artifact (snapshots "
                        "cannot be retrained; roll back to a version that "
                        "exists)"
                    )
                servable = self._train(spec, model)
                self.trained += 1
                _LOOKUPS.inc(outcome="trained")
                if self.use_disk:
                    self._store(spec, model, disk_key, servable, version)
            else:
                _LOOKUPS.inc(outcome="disk")
            servable = self._specialize(servable, model)
            self._lru[key] = servable
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
            return servable

    def put(self, spec: ScenarioSpec, model: str, servable, version: int, meta=None):
        """Commit an immutable lineage snapshot as ``version``.

        The lifecycle layer calls this to freeze a candidate (e.g. the
        feedback-updated online predictor) as a content-addressed
        artifact. Versions are write-once: committing over an existing
        version raises instead of mutating history. Returns the disk
        key (also stored in the journal's ``register`` event as
        ``trained_at_key``).
        """
        self.check_model_name(model)
        version = self.check_version(version)
        disk_key = self.model_key(spec, model, version)
        key = (spec.dataset_digest, model, _MODEL_VERSIONS[model], version)
        with self._lock:
            exists = key in self._lru or (
                self.use_disk and self.cache.has(MODEL_STAGE, disk_key)
            )
            if exists:
                raise ServeError(
                    f"model {model!r} version {version} already exists for "
                    f"scenario {spec.label}; versions are immutable"
                )
            if self.use_disk:
                self._store(spec, model, disk_key, servable, version, meta)
            self._lru[key] = self._specialize(servable, model)
            while len(self._lru) > self.capacity:
                self._lru.popitem(last=False)
        return disk_key

    def has_version(self, spec: ScenarioSpec, model: str, version: int) -> bool:
        """Is this lineage version available (warm or on disk)?"""
        self.check_model_name(model)
        version = self.check_version(version)
        if version == 1:
            return True  # always derivable from the frozen scenario
        key = (spec.dataset_digest, model, _MODEL_VERSIONS[model], version)
        with self._lock:
            if key in self._lru:
                return True
            return self.use_disk and self.cache.has(
                MODEL_STAGE, self.model_key(spec, model, version)
            )

    def versions(self, spec: ScenarioSpec, model: str) -> list[int]:
        """Sorted lineage versions available for (scenario, model)."""
        self.check_model_name(model)
        found = {1}
        with self._lock:
            for (digest, lru_model, code, version) in self._lru:
                if digest == spec.dataset_digest and lru_model == model and \
                        code == _MODEL_VERSIONS[model]:
                    found.add(version)
        if self.use_disk:
            try:
                for entry in self.cache.entries(MODEL_STAGE):
                    meta = entry.meta
                    if (
                        meta.get("dataset_key") == spec.dataset_digest
                        and meta.get("model") == model
                    ):
                        found.add(int(meta.get("lineage_version", 1)))
            except Exception:  # noqa: BLE001 — a damaged cache lists less
                pass
        return sorted(found)

    def train(self, spec: ScenarioSpec, model: str):
        """Train a fresh (unspecialized) servable from the frozen dataset.

        Deterministic given the scenario: the lifecycle layer uses this
        to mint new estimator candidates without touching the LRU or the
        cache (committing the result is :meth:`put`'s job).
        """
        self.check_model_name(model)
        return self._train(spec, model)

    @staticmethod
    def _specialize(servable, model: str):
        """Swap in the array-backed inference backend where one exists.

        BDT predictors are wrapped in
        :class:`~repro.serve.flat_bdt.FlatBDTServable` (vectorized
        level-order descent, bit-identical outputs) *after* disk
        load/train, so the on-disk artifact format stays the plain
        :class:`~repro.ml.pipeline.FittedPredictor` pickle — old caches
        load fine and the offline oracle opens the same artifact.
        """
        if model not in _TREE_BACKED:
            return servable
        from repro.serve.flat_bdt import FlatBDTServable

        if isinstance(servable, FlatBDTServable):
            return servable
        return FlatBDTServable(servable)

    def _load_cached(self, disk_key: str):
        """Disk-cached servable, with bounded retry; None means retrain.

        Transient read errors (NFS hiccups, the injected ``cache.read``
        fault) are retried with exponential backoff; a corrupted pickle
        (truncated write, the injected ``cache.corrupt`` fault) raises
        on every attempt and likewise resolves to retraining — a bad
        artifact must never take the service down.
        """
        for attempt in range(self.load_retries + 1):
            try:
                if not self.cache.has(MODEL_STAGE, disk_key):
                    return None
                servable = self.cache.load_pickle(MODEL_STAGE, disk_key)
                self.disk_loads += 1
                return servable
            except Exception:  # noqa: BLE001 — unpickling can raise anything
                self.load_failures += 1
                if attempt < self.load_retries:
                    time.sleep(self.retry_backoff_s * (2**attempt))
        return None

    def _store(
        self,
        spec: ScenarioSpec,
        model: str,
        disk_key: str,
        servable,
        version: int = 1,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        """Commit a fitted servable; a failed write never fails the get."""
        try:
            self.cache.store_pickle(
                MODEL_STAGE,
                disk_key,
                servable,
                {
                    "config": spec.to_dict(),
                    "label": f"{spec.label}/{model}"
                    + (f"@v{version}" if version != 1 else ""),
                    "model": model,
                    "dataset_key": spec.dataset_digest,
                    "lineage_version": version,
                    "n_items": servable.n_train,
                    **dict(meta or ()),
                },
            )
        except CacheError:
            # Serve from memory; the next cold registry simply retrains.
            self.store_failures += 1

    def _train(self, spec: ScenarioSpec, model: str):
        """Build the scenario's dataset (cached) and fit one model on it."""
        if maybe_fire("registry.train"):
            raise ServeError(f"injected fault: registry.train {spec.label}/{model}")
        t0 = time.perf_counter()
        with trace_span("registry.train", model=model, scenario=spec.label):
            dataset = self._build_dataset(spec)
            if model == "online":
                servable = _fit_online(dataset.jobs)
            elif model in ("GPU", "FAIL"):
                from repro.analysis.prediction import default_models, failure_models
                from repro.ml import FAILURE_TRACK, GPU_POWER_TRACK, fit_predictor

                # Track BDTs: same estimator family, the track's target
                # and features. track.select raises a clear error when
                # the scenario's system doesn't model the columns.
                track = GPU_POWER_TRACK if model == "GPU" else FAILURE_TRACK
                factory = (
                    default_models()["BDT"]
                    if model == "GPU"
                    else failure_models()["BDT"]
                )
                servable = fit_predictor(
                    track.select(dataset.jobs),
                    factory,
                    model_name=model,
                    feature_spec=track.feature_spec(),
                    target_column=track.target_column,
                )
            else:
                from repro.analysis.prediction import default_models
                from repro.ml import fit_predictor

                servable = fit_predictor(
                    dataset.jobs, default_models()[model], model_name=model
                )
        self.last_train_seconds = round(time.perf_counter() - t0, 4)
        _TRAIN_SECONDS.observe(time.perf_counter() - t0, model=model)
        return servable

    def _build_dataset(self, spec: ScenarioSpec):
        from repro.telemetry import generate_dataset

        if self.use_disk:
            from repro.pipeline import build_dataset

            try:
                return build_dataset(**spec.dataset_kwargs(), cache_dir=self.cache.root)
            except CacheError:
                # The staged cache is unusable (disk trouble, injected
                # cache faults): fall back to the in-memory pipeline,
                # which builds the byte-identical dataset cache-free.
                self.dataset_fallbacks += 1
        return generate_dataset(**spec.dataset_kwargs())

    def fallback(self, spec: ScenarioSpec) -> MeanPowerServable:
        """The degraded-mode mean-power baseline for a scenario.

        Preferred source is the scenario dataset's own mean per-node
        power (deterministic); if even that cannot be built, a constant
        fraction of the system's TDP keeps the service answering.
        """
        with self._lock:
            servable = self._fallbacks.get(spec.dataset_digest)
            if servable is not None:
                return servable
            try:
                jobs = self._build_dataset(spec).jobs
                servable = MeanPowerServable(
                    float(jobs["pernode_power_w"].astype(float).mean()),
                    n_train=len(jobs),
                )
            except Exception:  # noqa: BLE001 — last line of defense
                from repro.cluster import get_spec

                servable = MeanPowerServable(
                    _FALLBACK_TDP_FRACTION * get_spec(spec.system).node_tdp_watts
                )
            self._fallbacks[spec.dataset_digest] = servable
            return servable

    # -- inspection ------------------------------------------------------

    def loaded(self) -> list[dict[str, Any]]:
        """Descriptors of every warm model (``/v1/models`` endpoint)."""
        with self._lock:
            return [
                {
                    "dataset_digest": digest,
                    "model": model,
                    "version": version,
                    "n_train": servable.n_train,
                }
                for (digest, model, _code, version), servable in self._lru.items()
            ]

    def stats(self) -> dict[str, Any]:
        """Counter snapshot: hits/misses/disk loads/trains, fault recovery."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "warm": len(self._lru),
                "hits": self.hits,
                "misses": self.misses,
                "disk_loads": self.disk_loads,
                "trained": self.trained,
                "load_failures": self.load_failures,
                "store_failures": self.store_failures,
                "dataset_fallbacks": self.dataset_fallbacks,
            }
