"""Streaming (bounded-memory) shard execution: chunk, spill, compact.

The monolithic :func:`repro.pipeline.stages.run_shard` materializes the
whole job stream, schedule, and telemetry sample in memory — fine at the
paper's 41k-job scale, a wall at millions of jobs. This module builds
the *same artifact, byte for byte*, holding only one chunk plus the
scheduler's live frontier at a time. Samples, the largest table, are
spilled and merged one column at a time; compaction still reads every
chunk's job table at once (docs/PIPELINE.md):

1. **Plan** — the workload is generated once into a columnar
   :class:`~repro.workload.generator.WorkloadPlan` (~32 bytes/job) and
   cached; job specs are materialized per chunk from plan slices.
2. **Chunk** — a :class:`ChunkPlan` partitions the plan's job indices
   into deterministic, seed-independent chunks. For each chunk the
   incremental :class:`~repro.scheduler.simulator.Simulator` is fed the
   chunk's arrivals (carrying the running set / resume pointer across
   boundaries), the started jobs are harvested, telemetry is sampled by
   a :class:`~repro.telemetry.stream.TelemetryStream` continuing the
   monolithic generator streams, and the joined chunk table is spilled
   as an uncompressed NPZ shard under the artifact cache's ``chunk``
   stage — together with a pickled resume checkpoint (simulator +
   telemetry state), which is what makes an interrupted run restartable
   from its last completed chunk.
3. **Compact** — the shards are merged into the final ``dataset`` stage
   entry. Job tables concatenate, and sample tables concatenate column
   by column (:func:`~repro.frames.concat_columns` over lazy
   :func:`~repro.frames.iter_npz` readers); the float power
   timeline is *replayed* per job in global start order (float addition
   is not associative — summing per-chunk partial timelines would change
   the bytes), and the integer occupancy timeline is rebuilt exactly
   from bounds + cumsum. The three output files are independent, so
   ``compact_workers > 1`` fans them out over a process pool (the same
   machinery :func:`repro.pipeline.runner.run_pipeline` uses for
   shards).

Byte-identity with the monolithic writer is enforced by
``tests/pipeline/test_stream.py`` (hypothesis, across seeds and chunk
sizes) and by ``tools/smoke.py stream`` in CI.
"""

from __future__ import annotations

import json
import pickle
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import PipelineError, TelemetryError
from repro.frames import Table, concat, concat_columns, iter_npz, read_npz, write_npz
from repro.obs.logs import get_logger
from repro.obs.metrics import REGISTRY, peak_rss_bytes
from repro.obs.tracing import trace_span
from repro.pipeline.artifacts import DATASET_META_NAME
from repro.pipeline.cache import ArtifactCache, stage_timing
from repro.pipeline.config import (
    CHUNK_STAGE,
    DEFAULT_CHUNK_JOBS,
    PLAN_STAGE,
    ShardConfig,
    ShardReport,
    StageTiming,
    chunk_key,
    plan_key,
    stage_key,
)
from repro.scheduler.simulator import SchedulerConfig, Simulator
from repro.telemetry.dataset import build_inputs, join_jobs
from repro.telemetry.samples_schema import sample_columns
from repro.telemetry.schema import job_columns, save_jobs_npz
from repro.telemetry.stream import TelemetryStream
from repro.units import MINUTE
from repro.workload.generator import WorkloadGenerator

__all__ = ["ChunkPlan", "stream_shard"]

_LOG = get_logger("repro.pipeline.stream")

# Streaming observability (docs/OBSERVABILITY.md).
_CHUNKS = REGISTRY.counter(
    "repro_stream_chunks_total",
    "Streaming-pipeline chunks processed, by outcome (built/cached).",
    labelnames=("outcome",),
)
_COMPACTED = REGISTRY.counter(
    "repro_stream_shards_compacted_total",
    "Spill shards merged into final dataset artifacts.",
)
_PEAK_RSS = REGISTRY.gauge(
    "repro_peak_rss_bytes",
    "Peak resident set size of this process (bytes).",
)

_JOBS_NAME = "jobs.npz"
_POWER_NAME = "power.npz"
_SAMPLES_NAME = "samples.npz"
_STATE_NAME = "state.pkl"
_TIMELINE_NAME = "timeline.npz"


@dataclass(frozen=True)
class ChunkPlan:
    """Deterministic partition of plan indices ``[0, n_jobs)`` into chunks.

    Purely arithmetic — the boundaries depend only on ``(n_jobs,
    chunk_jobs)``, never on the seed or the schedule, so two runs of the
    same configuration always agree on every chunk's contents.
    """

    n_jobs: int
    chunk_jobs: int

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise PipelineError("chunk plan needs at least one job")
        if self.chunk_jobs < 1:
            raise PipelineError("chunk_jobs must be >= 1")

    @property
    def n_chunks(self) -> int:
        return -(-self.n_jobs // self.chunk_jobs)

    def bounds(self, index: int) -> tuple[int, int]:
        """Half-open plan-index range ``[lo, hi)`` of chunk ``index``."""
        if not 0 <= index < self.n_chunks:
            raise PipelineError(
                f"chunk index {index} out of range [0, {self.n_chunks})"
            )
        lo = index * self.chunk_jobs
        return lo, min(lo + self.chunk_jobs, self.n_jobs)

    def __iter__(self):
        for i in range(self.n_chunks):
            yield (i,) + self.bounds(i)


def stream_shard(
    shard: ShardConfig,
    cache: ArtifactCache,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
    force: bool = False,
    compact_workers: int = 1,
    keep_shards: bool = False,
) -> ShardReport:
    """Build one shard's dataset artifact in bounded memory.

    Commits the *same* ``dataset`` cache entry (same key, same bytes) as
    :func:`~repro.pipeline.stages.run_shard`; a warm dataset entry
    returns immediately. Completed spill shards from an interrupted run
    are reused (the run resumes from the checkpoint in the last one);
    after a successful compaction the shards are deleted unless
    ``keep_shards``.
    """
    if chunk_jobs < 1:
        raise PipelineError("chunk_jobs must be >= 1")
    if compact_workers < 1:
        raise PipelineError("compact_workers must be >= 1")
    with trace_span(
        "pipeline.stream", label=shard.label, chunk_jobs=chunk_jobs, force=force
    ) as span:
        report = _stream_shard(
            shard, cache, chunk_jobs, force, compact_workers, keep_shards
        )
        if span is not None:
            span.set(n_jobs=report.n_jobs, fully_cached=report.fully_cached)
        _PEAK_RSS.set(peak_rss_bytes())
        return report


def _stream_shard(
    shard: ShardConfig,
    cache: ArtifactCache,
    chunk_jobs: int,
    force: bool,
    compact_workers: int,
    keep_shards: bool,
) -> ShardReport:
    dataset_key = stage_key(shard, "dataset")
    report = ShardReport(config=shard, dataset_key=dataset_key)
    meta_common = {"config": shard.to_dict(), "label": shard.label}

    # Fast path: final artifact already committed (by either mode).
    if not force and cache.has("dataset", dataset_key):
        t0 = time.perf_counter()
        meta = cache.load_meta("dataset", dataset_key)
        report.stages.append(
            StageTiming(
                stage="dataset", key=dataset_key,
                seconds=time.perf_counter() - t0, cached=True,
                n_items=meta.get("n_jobs", 0), n_traces=meta.get("n_traces", 0),
                n_gaps=meta.get("n_gaps", 0),
            )
        )
        report.n_jobs = meta.get("n_jobs", 0)
        report.n_traces = meta.get("n_traces", 0)
        return report

    cluster, params = build_inputs(
        shard.system, seed=shard.seed, num_nodes=shard.num_nodes,
        num_users=shard.num_users, horizon_s=shard.horizon_s,
        params_overrides=shard.overrides_dict or None,
        variability_sigma=shard.variability_sigma,
    )

    # -- plan: the columnar workload, generated once ---------------------
    pkey = plan_key(shard)
    t0 = time.perf_counter()
    if not force and cache.has(PLAN_STAGE, pkey):
        plan = cache.load_pickle(PLAN_STAGE, pkey)
        plan_cached = True
    else:
        plan = WorkloadGenerator(
            params, cluster.num_nodes, seed=shard.seed
        ).generate_plan()
        cache.store_pickle(
            PLAN_STAGE, pkey, plan, {**meta_common, "n_items": plan.n_jobs}, t0=t0
        )
        plan_cached = False
    report.stages.append(
        StageTiming(
            stage=PLAN_STAGE, key=pkey, seconds=time.perf_counter() - t0,
            cached=plan_cached, n_items=plan.n_jobs,
        )
    )
    if plan.n_jobs == 0:
        raise PipelineError(f"{shard.label}: workload plan has no jobs")

    chunks = ChunkPlan(n_jobs=plan.n_jobs, chunk_jobs=chunk_jobs)
    keys = [chunk_key(shard, chunk_jobs, i) for i in range(chunks.n_chunks)]

    # Resume from the longest prefix of committed chunk shards.
    done = 0
    if not force:
        while done < chunks.n_chunks and cache.has(CHUNK_STAGE, keys[done]):
            done += 1
    chunk_metas: list[dict] = []
    for i in range(done):
        meta = cache.load_meta(CHUNK_STAGE, keys[i])
        chunk_metas.append(meta)
        report.stages.append(
            StageTiming(
                stage=CHUNK_STAGE, key=keys[i], seconds=0.0, cached=True,
                n_items=meta.get("n_items", 0),
                n_traces=meta.get("n_traces", 0),
                n_gaps=meta.get("n_gaps", 0),
            )
        )
        _CHUNKS.inc(outcome="cached")

    sim = Simulator(
        SchedulerConfig(
            num_nodes=cluster.num_nodes, backfill_depth=shard.backfill_depth
        )
    )
    tstream = TelemetryStream(
        cluster, params.horizon_s, seed=shard.seed, max_traces=shard.max_traces
    )
    if done:
        if done < chunks.n_chunks:
            state_path = cache.entry_dir(CHUNK_STAGE, keys[done - 1]) / _STATE_NAME
            with state_path.open("rb") as fh:
                state = pickle.load(fh)
            sim = Simulator.restore(state["simulator"])
            tstream.restore_state(state["telemetry"])
        _LOG.info(
            "streaming run resumed", label=shard.label,
            chunks_reused=done, chunks_total=chunks.n_chunks,
        )

    for i in range(done, chunks.n_chunks):
        t0 = time.perf_counter()
        lo, hi = chunks.bounds(i)
        last = i == chunks.n_chunks - 1
        with trace_span(
            "pipeline.chunk", shard=shard.label, index=i, lo=lo, hi=hi
        ) as span:
            sim.feed(plan.materialize(lo, hi))
            if last:
                sim.drain()
            harvest = sim.take_results()
            sample = tstream.sample_chunk(harvest)
            jobs = join_jobs(harvest, sample)
            max_end_s = max((j.end_s for j in harvest), default=0)
            checkpoint = None
            if not last:
                checkpoint = {
                    "simulator": sim.snapshot(),
                    "telemetry": tstream.state(),
                    "next_index": i + 1,
                }

            def build(tmp_dir: Path) -> dict:
                # Spill shards are transient: skip deflate (compress only
                # the final artifact, whose bytes are the contract).
                write_npz(jobs, tmp_dir / _JOBS_NAME, compress=False)
                write_npz(
                    Table({"power_sum": sample.power_sum}),
                    tmp_dir / _POWER_NAME, compress=False,
                )
                if sample.traces:
                    # Chunks in order concatenate to the monolithic table.
                    write_npz(
                        sample_columns(sample.traces, sample.trace_allocations),
                        tmp_dir / _SAMPLES_NAME, compress=False,
                    )
                if checkpoint is not None:
                    with (tmp_dir / _STATE_NAME).open("wb") as fh:
                        pickle.dump(
                            checkpoint, fh, protocol=pickle.HIGHEST_PROTOCOL
                        )
                return stage_timing(t0)

            meta = {
                **meta_common,
                "dataset_key": dataset_key,
                "chunk_jobs": chunk_jobs,
                "index": i,
                "n_items": len(harvest),
                "n_traces": len(sample.traces),
                "n_gaps": sample.n_gaps,
                "max_end_s": int(max_end_s),
                "trace_order": [int(k) for k in sample.traces],
            }
            cache.store_tree(CHUNK_STAGE, keys[i], build, meta)
            chunk_metas.append(meta)
            if span is not None:
                span.set(n_items=len(harvest), n_traces=len(sample.traces))
        report.stages.append(
            StageTiming(
                stage=CHUNK_STAGE, key=keys[i],
                seconds=time.perf_counter() - t0, cached=False,
                n_items=len(harvest), n_traces=len(sample.traces),
                n_gaps=sample.n_gaps,
            )
        )
        _CHUNKS.inc(outcome="built")
        _PEAK_RSS.set(peak_rss_bytes())

    # -- compact: merge shards into the final dataset entry --------------
    t0 = time.perf_counter()
    n_jobs = sum(m.get("n_items", 0) for m in chunk_metas)
    n_traces = sum(m.get("n_traces", 0) for m in chunk_metas)
    n_gaps = sum(m.get("n_gaps", 0) for m in chunk_metas)
    trace_order = [jid for m in chunk_metas for jid in m.get("trace_order", [])]
    max_end_s = max(m.get("max_end_s", 0) for m in chunk_metas)
    n_minutes = max(max_end_s // MINUTE + 1, int(np.ceil(params.horizon_s / MINUTE)))
    shard_dirs = [str(cache.entry_dir(CHUNK_STAGE, k)) for k in keys]
    with trace_span(
        "pipeline.compact", shard=shard.label, n_shards=len(keys),
        workers=compact_workers,
    ):

        def build(tmp_dir: Path) -> dict:
            _compact_shards(
                shard_dirs, tmp_dir, n_minutes=n_minutes,
                num_nodes=cluster.num_nodes, workers=compact_workers,
            )
            spec_fields = {
                f: getattr(cluster.spec, f)
                for f in cluster.spec.__dataclass_fields__
            }
            meta = {
                "system": cluster.spec.name,
                "horizon_s": int(params.horizon_s),
                "n_jobs": n_jobs,
                "n_traces": n_traces,
                "n_minutes": n_minutes,
                "spec": spec_fields,
                "trace_order": trace_order,
            }
            (tmp_dir / DATASET_META_NAME).write_text(
                json.dumps(meta, indent=2, sort_keys=True)
            )
            return {"n_jobs": n_jobs, "n_traces": n_traces,
                    "n_minutes": n_minutes, **stage_timing(t0)}

        cache.store_tree(
            "dataset", dataset_key, build,
            {**meta_common, "n_gaps": n_gaps,
             "streamed": True, "chunk_jobs": chunk_jobs,
             "n_chunks": chunks.n_chunks},
        )
    _COMPACTED.inc(chunks.n_chunks)
    _PEAK_RSS.set(peak_rss_bytes())
    report.stages.append(
        StageTiming(
            stage="dataset", key=dataset_key,
            seconds=time.perf_counter() - t0, cached=False,
            n_items=n_jobs, n_traces=n_traces, n_gaps=n_gaps,
        )
    )
    report.n_jobs = n_jobs
    report.n_traces = n_traces

    if not keep_shards:
        for key in keys:
            entry = cache.entry_dir(CHUNK_STAGE, key)
            if entry.is_dir():
                shutil.rmtree(entry)
        stage_dir = cache.root / CHUNK_STAGE
        if stage_dir.is_dir() and not any(stage_dir.iterdir()):
            stage_dir.rmdir()
    _LOG.info(
        "streaming shard compacted", label=shard.label, n_jobs=n_jobs,
        n_chunks=chunks.n_chunks, chunks_reused=done,
        seconds=round(time.perf_counter() - t0, 3),
        peak_rss_bytes=peak_rss_bytes(),
    )
    return report


# -- compaction workers (module-level: picklable for the process pool) ---


def _compact_jobs(payload: tuple[list[str], str]) -> None:
    """Concatenate the chunks' job tables into the final ``jobs.npz``.

    ``np.concatenate`` promotes per-chunk string columns to the widest
    width, which equals the global width the monolithic writer computes.
    """
    shard_dirs, out_path = payload
    tables = [read_npz(Path(d) / _JOBS_NAME) for d in shard_dirs]
    jobs = concat([t for t in tables if len(t)])
    save_jobs_npz(jobs.select(job_columns(jobs)), out_path)


def _compact_samples(payload: tuple[list[str], str]) -> None:
    """Concatenate the chunks' sample tables into the final ``samples.npz``,
    reading, merging and writing one column at a time."""
    shard_dirs, out_path = payload
    paths = [
        p for p in (Path(d) / _SAMPLES_NAME for d in shard_dirs) if p.is_file()
    ]
    if paths:
        write_npz(concat_columns([iter_npz(p) for p in paths]), out_path)


def _compact_timeline(payload: tuple[list[str], str, int, int]) -> None:
    """Rebuild the per-minute timelines exactly as the monolithic join.

    ``active_nodes`` is integer and order-free (bounds + cumsum);
    ``job_power_watts`` replays the per-job ``+=`` loop in global start
    order, because float accumulation order is part of the bytes.
    """
    shard_dirs, out_path, n_minutes, num_nodes = payload
    bounds = np.zeros(n_minutes + 1, dtype=np.int64)
    job_power = np.zeros(n_minutes, dtype=float)
    for d in shard_dirs:
        jobs = read_npz(Path(d) / _JOBS_NAME)
        if not len(jobs):
            continue
        power_sum = read_npz(Path(d) / _POWER_NAME)["power_sum"]
        a_min = jobs["start_s"] // MINUTE
        b_min = np.maximum(a_min + 1, jobs["end_s"] // MINUTE)
        nodes = jobs["nodes"]
        np.add.at(bounds, a_min, nodes)
        np.subtract.at(bounds, b_min, nodes)
        # tolist() up front: indexing numpy scalars one-by-one in a
        # million-iteration loop costs more than the slice adds do.
        for a, b, w in zip(a_min.tolist(), b_min.tolist(), power_sum.tolist()):
            job_power[a:b] += w
    active = np.cumsum(bounds[:-1])
    if np.any(active > num_nodes):
        raise TelemetryError("scheduler over-allocated nodes (timeline check)")
    write_npz(
        Table({"active_nodes": active, "job_power_watts": job_power}), out_path
    )


def _compact_worker(task: tuple[str, Any]) -> str:
    """Process-pool entry point: run one output-file compaction task."""
    kind, payload = task
    {"jobs": _compact_jobs, "samples": _compact_samples,
     "timeline": _compact_timeline}[kind](payload)
    return kind


def _compact_shards(
    shard_dirs: list[str],
    out_dir: Path,
    n_minutes: int,
    num_nodes: int,
    workers: int,
) -> None:
    """Write the final artifact files from the spill shards.

    The three outputs are independent, so with ``workers > 1`` they run
    on a process pool; serial and parallel compaction produce identical
    bytes (each file is written by exactly one deterministic task).
    """
    tasks: list[tuple[str, Any]] = [
        ("jobs", (shard_dirs, str(out_dir / _JOBS_NAME))),
        ("samples", (shard_dirs, str(out_dir / _SAMPLES_NAME))),
        ("timeline", (shard_dirs, str(out_dir / _TIMELINE_NAME), n_minutes, num_nodes)),
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            list(pool.map(_compact_worker, tasks))
    else:
        for task in tasks:
            _compact_worker(task)
