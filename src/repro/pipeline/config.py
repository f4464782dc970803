"""Shard configuration, the dataset key, and timing records.

This module is deliberately light — it imports neither numpy nor any
simulation layer — so the CLI's bookkeeping subcommands
(``pipeline status`` / ``pipeline clean``) and the PEP 562 lazy package
surface can load it without paying for scipy or the engine.

A monolithic build runs four timed steps per (system, seed) shard and
caches one entry, the joined ``dataset``::

    workload ──▶ schedule ──▶ telemetry ──▶ dataset
    (job stream) (placements)  (RAPL samples) (joined artifact, cached)

The dataset key (:func:`stage_key`) is a SHA-256 over every
:class:`ShardConfig` field, so any configuration change rebuilds the
whole shard. The streamed builder's ``plan`` and ``chunk`` entries are
keyed through it (:func:`plan_key`, :func:`chunk_key`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Any

from repro.errors import PipelineError
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY
from repro.pipeline.cache import content_key

__all__ = [
    "STAGES",
    "PLAN_STAGE",
    "CHUNK_STAGE",
    "DEFAULT_CHUNK_JOBS",
    "ShardConfig",
    "StageTiming",
    "ShardReport",
    "stage_key",
    "plan_key",
    "chunk_key",
]

#: The timed steps of a monolithic build, in the order the run manifest
#: records them; only the last one is cached.
STAGES: tuple[str, ...] = ("workload", "schedule", "telemetry", "dataset")

# Streaming-mode cache stages (docs/PIPELINE.md "Streaming mode"). The
# plan stage holds the columnar workload plan; the chunk stage holds the
# spilled per-chunk shards (jobs + power sums + samples + a resume
# checkpoint). Both are keyed through the dataset key, so any knob that
# would invalidate the dataset invalidates them too.
PLAN_STAGE = "plan"
CHUNK_STAGE = "chunk"

#: Default jobs per streaming chunk; ~32 MB of live state per chunk.
DEFAULT_CHUNK_JOBS = 100_000

_PLAN_VERSION = 1
_CHUNK_VERSION = 1

# The dataset key's payload, frozen: ScenarioSpec.dataset_digest is this
# key, every /v1/predict response returns it, and the served-model keys
# and lifecycle directories derive from it. Editing anything here, the
# step version counters included (nothing else reads them), re-keys
# every dataset and every served model.
_DATASET_KEY_PAYLOAD = {
    "format": 1,
    "stage": "dataset",
    "versions": {"workload": 1, "schedule": 1, "telemetry": 1, "dataset": 1},
}

# Pipeline observability (docs/OBSERVABILITY.md): per-step wall time and
# execution counts, split by whether the step was a cache hit.
_STAGE_SECONDS = REGISTRY.histogram(
    "repro_pipeline_stage_seconds",
    "Wall time of one pipeline stage execution (hit or build).",
    buckets=DEFAULT_SECONDS_BUCKETS,
    labelnames=("stage", "cached"),
)
_STAGE_RUNS = REGISTRY.counter(
    "repro_pipeline_stage_runs_total",
    "Pipeline stage executions by stage and cache outcome.",
    labelnames=("stage", "cached"),
)


@dataclass(frozen=True)
class ShardConfig:
    """One (system, seed, scale) unit of pipeline work.

    Mirrors the signature of
    :func:`repro.telemetry.generate_dataset`; a shard built through the
    pipeline is byte-identical to a dataset generated directly with the
    same arguments.
    """

    system: str
    seed: int = 0
    num_nodes: int | None = None
    num_users: int | None = None
    horizon_s: int | None = None
    max_traces: int = 2000
    backfill_depth: int = 100
    variability_sigma: float | None = None
    # Workload ablation knobs; normalized to a sorted tuple of pairs so
    # the config stays hashable and order-independent.
    params_overrides: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.system:
            raise PipelineError("shard needs a system name")
        overrides = self.params_overrides
        if isinstance(overrides, dict):
            overrides = overrides.items()
        normalized = tuple(sorted((str(k), v) for k, v in overrides))
        object.__setattr__(self, "params_overrides", normalized)

    @property
    def overrides_dict(self) -> dict[str, Any]:
        """``params_overrides`` as the dict ``generate_dataset`` expects."""
        return dict(self.params_overrides)

    @property
    def label(self) -> str:
        """Short human-readable shard name, e.g. ``emmy/seed1``."""
        return f"{self.system}/seed{self.seed}"

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (used for hashing, manifests, and workers)."""
        out: dict[str, Any] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["params_overrides"] = [list(pair) for pair in self.params_overrides]
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardConfig":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        data["params_overrides"] = tuple(
            (k, v) for k, v in data.get("params_overrides", [])
        )
        return cls(**data)


def stage_key(shard: ShardConfig, stage: str) -> str:
    """Content-address of one shard's ``dataset`` entry.

    ``dataset`` is the only stage a monolithic build caches; any other
    name raises :class:`~repro.errors.PipelineError`.
    """
    if stage != "dataset":
        raise PipelineError(f"only the dataset stage is keyed, not {stage!r}")
    return content_key({**_DATASET_KEY_PAYLOAD, "config": shard.to_dict()})


def plan_key(shard: ShardConfig) -> str:
    """Content-address of the columnar workload plan for one shard.

    Derived from the dataset key, as :func:`chunk_key` is: a plan is
    cheap to rebuild, so it is reused only by a run that would build the
    identical dataset.
    """
    return content_key(
        {
            "stage": PLAN_STAGE,
            "version": _PLAN_VERSION,
            "dataset": stage_key(shard, "dataset"),
        }
    )


def chunk_key(shard: ShardConfig, chunk_jobs: int, index: int) -> str:
    """Content-address of one spilled chunk shard of a streaming build.

    Keyed on the dataset stage key plus the chunk geometry: a chunk is
    only reusable by a run that would produce the identical dataset with
    the identical chunk boundaries.
    """
    return content_key(
        {
            "stage": CHUNK_STAGE,
            "version": _CHUNK_VERSION,
            "dataset": stage_key(shard, "dataset"),
            "chunk_jobs": chunk_jobs,
            "index": index,
        }
    )


def _rate(n: int, seconds: float) -> float | None:
    """``n`` per second; ``None`` over zero seconds (JSON ``null``, never
    ``Infinity``, which is not JSON)."""
    return n / seconds if seconds > 0 else None


def _rounded(rate: float | None) -> float | None:
    return None if rate is None else round(rate, 3)


@dataclass(frozen=True)
class StageTiming:
    """Wall time and throughput of one stage execution (or cache load)."""

    stage: str
    key: str
    seconds: float
    cached: bool
    n_items: int  # jobs the stage produced/sampled/joined
    n_traces: int = 0  # instrumented traces (telemetry/dataset stages)
    n_gaps: int = 0  # dropped-then-gap-filled samples (telemetry stage)

    @property
    def items_per_second(self) -> float | None:
        """Job throughput recorded in the run manifest."""
        return _rate(self.n_items, self.seconds)

    @property
    def traces_per_second(self) -> float | None:
        """Trace throughput; 0.0 for stages that produce no traces."""
        if self.n_traces == 0:
            return 0.0
        return _rate(self.n_traces, self.seconds)

    def to_dict(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "key": self.key,
            "seconds": self.seconds,
            "cached": self.cached,
            "n_items": self.n_items,
            "n_traces": self.n_traces,
            "n_gaps": self.n_gaps,
            "items_per_second": _rounded(self.items_per_second),
            "traces_per_second": _rounded(self.traces_per_second),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "StageTiming":
        # .get keeps manifests written before the throughput fields loadable.
        return cls(
            stage=data["stage"], key=data["key"], seconds=data["seconds"],
            cached=data["cached"], n_items=data["n_items"],
            n_traces=data.get("n_traces", 0),
            n_gaps=data.get("n_gaps", 0),
        )


@dataclass
class ShardReport:
    """Per-stage outcome of one shard for the run manifest."""

    config: ShardConfig
    stages: list[StageTiming] = field(default_factory=list)
    n_jobs: int = 0
    n_traces: int = 0
    dataset_key: str = ""

    def record(
        self, stage: str, key: str, t0: float, cached: bool, n_items: int,
        n_traces: int = 0, n_gaps: int = 0,
    ) -> None:
        """Append one step's timing since ``t0`` (a ``time.perf_counter()``
        reading) and observe it in the stage metrics."""
        seconds = time.perf_counter() - t0
        label = str(cached).lower()
        _STAGE_SECONDS.observe(seconds, stage=stage, cached=label)
        _STAGE_RUNS.inc(stage=stage, cached=label)
        self.stages.append(
            StageTiming(
                stage=stage, key=key, seconds=seconds, cached=cached,
                n_items=n_items, n_traces=n_traces, n_gaps=n_gaps,
            )
        )

    @property
    def n_gaps(self) -> int:
        """Dropped-then-gap-filled telemetry samples in this shard.

        The telemetry and dataset steps both report the same artifact's
        gap count (so a dataset cache hit still surfaces it); ``max``
        reads whichever step ran without double counting.
        """
        return max((t.n_gaps for t in self.stages), default=0)

    @property
    def seconds(self) -> float:
        """Total wall time across this shard's stages."""
        return sum(t.seconds for t in self.stages)

    @property
    def jobs_per_second(self) -> float | None:
        """End-to-end shard throughput (jobs over total stage wall time)."""
        return _rate(self.n_jobs, self.seconds)

    @property
    def fully_cached(self) -> bool:
        """True when every stage was served from the cache."""
        return bool(self.stages) and all(t.cached for t in self.stages)

    def to_dict(self) -> dict[str, Any]:
        return {
            "config": self.config.to_dict(),
            "label": self.config.label,
            "stages": [t.to_dict() for t in self.stages],
            "n_jobs": self.n_jobs,
            "n_traces": self.n_traces,
            "n_gaps": self.n_gaps,
            "dataset_key": self.dataset_key,
            "seconds": round(self.seconds, 4),
            "jobs_per_second": _rounded(self.jobs_per_second),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ShardReport":
        return cls(
            config=ShardConfig.from_dict(data["config"]),
            stages=[StageTiming.from_dict(t) for t in data["stages"]],
            n_jobs=data["n_jobs"],
            n_traces=data["n_traces"],
            dataset_key=data["dataset_key"],
        )
