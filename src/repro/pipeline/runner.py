"""Parallel shard execution and the run manifest.

:func:`run_pipeline` fans independent (system, seed) shards out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges their
reports deterministically (shards are sorted by configuration before
dispatch and collected in submission order, so the manifest — and the
cache contents — are identical for any worker count). Every run writes a
JSON :class:`RunManifest` recording per-stage wall time, throughput, and
cache hits; the manifest is the bench trajectory the ROADMAP asks for.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.errors import PipelineError
from repro.frames import Table
from repro.obs.logs import get_logger
from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY, peak_rss_bytes
from repro.obs.tracing import trace_span
from repro.pipeline.artifacts import load_jobs
from repro.pipeline.cache import ArtifactCache, canonical_json, default_cache_dir
from repro.pipeline.config import DEFAULT_CHUNK_JOBS, ShardConfig, ShardReport
from repro.pipeline.stages import run_shard
from repro.pipeline.stream import stream_shard
from repro.telemetry.dataset import JobDataset

__all__ = ["RunManifest", "run_pipeline", "build_dataset", "build_jobs", "MANIFEST_NAME"]

_RUNS = REGISTRY.counter(
    "repro_pipeline_runs_total",
    "Completed run_pipeline invocations.",
)
_RUN_SECONDS = REGISTRY.histogram(
    "repro_pipeline_run_seconds",
    "End-to-end wall time of one run_pipeline invocation.",
    buckets=DEFAULT_SECONDS_BUCKETS,
)
_LOG = get_logger("repro.pipeline")

MANIFEST_NAME = "manifest-latest.json"
_MANIFEST_VERSION = 1


@dataclass
class RunManifest:
    """Machine-readable record of one pipeline run.

    Serialized as JSON next to the cache (``manifest-latest.json``) and,
    optionally, to an explicit path. Schema documented in
    docs/PIPELINE.md.
    """

    workers: int
    cache_dir: str
    total_seconds: float
    shards: list[ShardReport] = field(default_factory=list)
    created_unix: float = 0.0
    version: int = _MANIFEST_VERSION
    # Peak resident set size of the run (parent process plus reaped
    # pool workers), captured when the manifest is assembled.
    peak_rss_bytes: int = 0

    @property
    def n_jobs(self) -> int:
        """Total jobs across all shards."""
        return sum(s.n_jobs for s in self.shards)

    @property
    def n_gaps(self) -> int:
        """Total dropped-then-gap-filled telemetry samples across shards."""
        return sum(s.n_gaps for s in self.shards)

    @property
    def stages_cached(self) -> int:
        """How many stage executions were cache hits."""
        return sum(1 for s in self.shards for t in s.stages if t.cached)

    @property
    def stages_total(self) -> int:
        """How many stage executions the run performed (hits + builds)."""
        return sum(len(s.stages) for s in self.shards)

    @property
    def fully_cached(self) -> bool:
        """True when every shard was served entirely from the cache."""
        return all(s.fully_cached for s in self.shards)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "created_unix": self.created_unix,
            "workers": self.workers,
            "cache_dir": self.cache_dir,
            "total_seconds": round(self.total_seconds, 4),
            "peak_rss_bytes": self.peak_rss_bytes,
            "n_jobs": self.n_jobs,
            "n_gaps": self.n_gaps,
            "stages_cached": self.stages_cached,
            "stages_total": self.stages_total,
            "shards": [s.to_dict() for s in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunManifest":
        return cls(
            workers=data["workers"],
            cache_dir=data["cache_dir"],
            total_seconds=data["total_seconds"],
            shards=[ShardReport.from_dict(s) for s in data["shards"]],
            created_unix=data.get("created_unix", 0.0),
            version=data.get("version", _MANIFEST_VERSION),
            peak_rss_bytes=data.get("peak_rss_bytes", 0),
        )

    def save(self, path: str | os.PathLike) -> Path:
        """Write the manifest as indented JSON; returns the path.

        Strict JSON: a non-finite number raises instead of being written
        as ``Infinity``/``NaN``, which JSON parsers such as ``jq`` reject.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)
        )
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "RunManifest":
        """Read a manifest written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def _shard_worker(payload: tuple[str, dict, bool, int]) -> dict:
    """Process-pool entry point: run one shard against the shared cache."""
    cache_root, shard_dict, stream, chunk_jobs = payload
    shard = ShardConfig.from_dict(shard_dict)
    cache = ArtifactCache(cache_root)
    if stream:
        report = stream_shard(shard, cache, chunk_jobs=chunk_jobs)
    else:
        report, _ = run_shard(shard, cache, want_dataset=False)
    return report.to_dict()


def _normalize_shards(shards: Iterable[ShardConfig | dict]) -> list[ShardConfig]:
    out: list[ShardConfig] = []
    for s in shards:
        out.append(s if isinstance(s, ShardConfig) else ShardConfig.from_dict(s))
    if not out:
        raise PipelineError("run_pipeline needs at least one shard")
    # Deterministic order + dedupe: identical shards would race on the
    # same keys for no benefit.
    unique = {canonical_json(s.to_dict()): s for s in out}
    return [unique[k] for k in sorted(unique)]


def run_pipeline(
    shards: Sequence[ShardConfig | dict],
    cache_dir: str | os.PathLike | None = None,
    workers: int = 1,
    manifest_path: str | os.PathLike | None = None,
    force: bool = False,
    stream: bool = False,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
) -> RunManifest:
    """Build every shard's dataset artifact, in parallel, through the cache.

    Parameters
    ----------
    shards:
        :class:`ShardConfig` instances (or their dict form). Order and
        duplicates are irrelevant — shards are deduplicated and sorted
        before dispatch, so results are independent of worker count.
    cache_dir:
        Artifact cache root (default: :func:`default_cache_dir`).
    workers:
        Process count for the fan-out; ``1`` runs in-process.
    manifest_path:
        Optional explicit path for the run manifest; a copy is always
        written to ``<cache_dir>/manifest-latest.json``.
    force:
        Rebuild every shard even on cache hits.
    stream:
        Build each shard through the bounded-memory streaming path
        (:func:`repro.pipeline.stream.stream_shard`) instead of the
        monolithic build. The committed artifacts are byte-identical.
    chunk_jobs:
        Jobs per streaming chunk (ignored unless ``stream``).

    Returns
    -------
    RunManifest
        Per-shard, per-stage wall time / throughput / cache-hit record.
    """
    if workers < 1:
        raise PipelineError("workers must be >= 1")
    cache = ArtifactCache(Path(cache_dir) if cache_dir is not None else default_cache_dir())
    todo = _normalize_shards(shards)

    t0 = time.perf_counter()
    with trace_span(
        "pipeline.run", workers=workers, n_shards=len(todo), force=force,
        stream=stream,
    ):
        if workers > 1 and len(todo) > 1 and not force:
            payloads = [
                (str(cache.root), s.to_dict(), stream, chunk_jobs) for s in todo
            ]
            with ProcessPoolExecutor(max_workers=min(workers, len(todo))) as pool:
                reports = [
                    ShardReport.from_dict(d)
                    for d in pool.map(_shard_worker, payloads)
                ]
        elif stream:
            reports = [
                stream_shard(s, cache, chunk_jobs=chunk_jobs, force=force)
                for s in todo
            ]
        else:
            reports = [
                run_shard(s, cache, want_dataset=False, force=force)[0]
                for s in todo
            ]
    manifest = RunManifest(
        workers=workers,
        cache_dir=str(cache.root),
        total_seconds=time.perf_counter() - t0,
        shards=reports,
        created_unix=time.time(),
        peak_rss_bytes=peak_rss_bytes(),
    )
    _RUNS.inc()
    _RUN_SECONDS.observe(manifest.total_seconds)
    _LOG.info(
        "pipeline run finished",
        workers=workers,
        n_shards=len(todo),
        seconds=round(manifest.total_seconds, 3),
        stages_cached=manifest.stages_cached,
        stages_total=manifest.stages_total,
    )
    manifest.save(cache.root / MANIFEST_NAME)
    if manifest_path is not None:
        manifest.save(manifest_path)
    return manifest


def _dataset_shard(
    system: str,
    seed: int,
    num_nodes: int | None,
    num_users: int | None,
    horizon_s: int | None,
    max_traces: int,
    backfill_depth: int,
    params_overrides: dict | None,
    variability_sigma: float | None,
    cache_dir: str | os.PathLike | None,
) -> tuple[ShardConfig, ArtifactCache]:
    """The shard and cache :func:`build_dataset` and :func:`build_jobs` run."""
    shard = ShardConfig(
        system=system, seed=seed, num_nodes=num_nodes, num_users=num_users,
        horizon_s=horizon_s, max_traces=max_traces, backfill_depth=backfill_depth,
        variability_sigma=variability_sigma,
        params_overrides=tuple((params_overrides or {}).items()),
    )
    cache = ArtifactCache(Path(cache_dir) if cache_dir is not None else default_cache_dir())
    return shard, cache


def build_dataset(
    system: str = "emmy",
    seed: int = 0,
    num_nodes: int | None = None,
    num_users: int | None = None,
    horizon_s: int | None = None,
    max_traces: int = 2000,
    backfill_depth: int = 100,
    params_overrides: dict | None = None,
    variability_sigma: float | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> JobDataset:
    """Cached drop-in for :func:`repro.telemetry.generate_dataset`.

    Same signature and byte-identical output, but the dataset is served
    from (and committed to) the on-disk artifact cache, so a repeated
    call with the same configuration loads in milliseconds instead of
    re-running the simulation. ``cache_dir`` defaults to
    :func:`repro.pipeline.default_cache_dir`.
    """
    shard, cache = _dataset_shard(
        system, seed, num_nodes, num_users, horizon_s, max_traces,
        backfill_depth, params_overrides, variability_sigma, cache_dir,
    )
    _, dataset = run_shard(shard, cache, want_dataset=True)
    assert dataset is not None
    return dataset


def build_jobs(
    system: str = "emmy",
    seed: int = 0,
    num_nodes: int | None = None,
    num_users: int | None = None,
    horizon_s: int | None = None,
    max_traces: int = 2000,
    backfill_depth: int = 100,
    params_overrides: dict | None = None,
    variability_sigma: float | None = None,
    cache_dir: str | os.PathLike | None = None,
) -> Table:
    """The job table of :func:`build_dataset`'s dataset, read alone.

    Same parameters and cache entry as :func:`build_dataset`, and the
    same table as its ``.jobs``, but a committed entry is read through
    :func:`~repro.pipeline.artifacts.load_jobs`: the node×minute
    samples and the timeline stay on disk. A cold cache builds and
    commits the whole dataset first, byte-identical to
    :func:`build_dataset`'s.
    """
    shard, cache = _dataset_shard(
        system, seed, num_nodes, num_users, horizon_s, max_traces,
        backfill_depth, params_overrides, variability_sigma, cache_dir,
    )
    report, _ = run_shard(shard, cache, want_dataset=False)
    return load_jobs(cache.entry_dir("dataset", report.dataset_key))
