"""Cached, parallel experiment pipeline runner.

The substrate every figure/table build shares: an experiment runner
that times four steps (``workload → schedule → telemetry → dataset``)
and caches one joined dataset per (system, seed) shard in a
content-addressed on-disk artifact cache, with multiprocessing fan-out
over independent shards.

* :func:`build_dataset` — cached drop-in for
  :func:`repro.telemetry.generate_dataset` (one shard, returns the
  dataset).
* :func:`build_jobs` — the same shard, returning only its job table
  (read through :func:`load_jobs`; the samples stay on disk).
* :func:`run_pipeline` — build many shards, optionally in parallel;
  returns a :class:`RunManifest` with per-stage wall time, throughput,
  and cache-hit records.
* :class:`ArtifactCache` — the content-addressed store
  (``pipeline status`` / ``pipeline clean`` in the CLI).

Only the light bookkeeping surface (the cache and
:mod:`repro.pipeline.config`) is imported eagerly; the execution surface
(:func:`build_dataset`, :func:`build_jobs`, :func:`run_pipeline`,
:func:`run_shard`, the artifact serializers) loads on first attribute
access via PEP 562, so ``python -m repro pipeline status``/``clean``
never import numpy, scipy, or the simulation layers.

See docs/PIPELINE.md for the build steps, cache layout, dataset key,
parallelism model, and manifest schema; the CLI surface is
``python -m repro pipeline run|run-all|status|clean``.
"""

from repro import _lazy
from repro.pipeline.cache import (
    ArtifactCache,
    CacheEntry,
    CacheError,
    canonical_json,
    content_key,
    default_cache_dir,
)
from repro.pipeline.config import (
    CHUNK_STAGE,
    DEFAULT_CHUNK_JOBS,
    PLAN_STAGE,
    STAGES,
    ShardConfig,
    ShardReport,
    StageTiming,
    chunk_key,
    plan_key,
    stage_key,
)

__all__ = [
    "STAGES",
    "CHUNK_STAGE",
    "DEFAULT_CHUNK_JOBS",
    "MANIFEST_NAME",
    "PLAN_STAGE",
    "ArtifactCache",
    "CacheEntry",
    "CacheError",
    "ChunkPlan",
    "RunManifest",
    "ShardConfig",
    "ShardReport",
    "StageTiming",
    "build_dataset",
    "build_jobs",
    "canonical_json",
    "chunk_key",
    "content_key",
    "default_cache_dir",
    "load_dataset",
    "load_jobs",
    "plan_key",
    "run_pipeline",
    "run_shard",
    "save_dataset",
    "stage_key",
    "stream_shard",
]

# Heavy symbols resolved lazily (PEP 562): name -> defining submodule.
_LAZY_ATTRS = {
    "MANIFEST_NAME": "repro.pipeline.runner",
    "RunManifest": "repro.pipeline.runner",
    "build_dataset": "repro.pipeline.runner",
    "build_jobs": "repro.pipeline.runner",
    "run_pipeline": "repro.pipeline.runner",
    "run_shard": "repro.pipeline.stages",
    "load_dataset": "repro.pipeline.artifacts",
    "load_jobs": "repro.pipeline.artifacts",
    "save_dataset": "repro.pipeline.artifacts",
    "ChunkPlan": "repro.pipeline.stream",
    "stream_shard": "repro.pipeline.stream",
}

__getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)
