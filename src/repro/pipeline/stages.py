"""Stage execution: run one shard through the staged artifact cache.

The stage graph, shard configuration, cache keys, and timing records
live in :mod:`repro.pipeline.config` (kept import-light for the CLI's
bookkeeping subcommands); this module owns the heavy part — actually
running the ``workload -> schedule -> telemetry -> dataset`` stages,
which pulls in the workload generator, the scheduler engine, and the
telemetry samplers.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.metrics import DEFAULT_SECONDS_BUCKETS, REGISTRY, peak_rss_bytes
from repro.obs.tracing import trace_span
from repro.pipeline.artifacts import load_dataset, save_dataset
from repro.pipeline.cache import ArtifactCache
from repro.pipeline.config import (
    STAGE_FIELDS,
    STAGE_VERSIONS,
    STAGES,
    ShardConfig,
    ShardReport,
    StageTiming,
    stage_key,
)
from repro.scheduler import simulate
from repro.telemetry.dataset import (
    JobDataset,
    build_inputs,
    join_dataset,
    sample_telemetry,
)
from repro.workload.generator import WorkloadGenerator

__all__ = [
    "STAGES",
    "STAGE_FIELDS",
    "STAGE_VERSIONS",
    "ShardConfig",
    "StageTiming",
    "ShardReport",
    "stage_key",
    "run_shard",
]

# Pipeline observability (docs/OBSERVABILITY.md): per-stage wall time
# and execution counts, split by whether the stage was a cache hit.
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

def run_shard(
    shard: ShardConfig,
    cache: ArtifactCache,
    want_dataset: bool = True,
    force: bool = False,
) -> tuple[ShardReport, JobDataset | None]:
    """Run one shard through the staged cache.

    Resumes from the deepest cached stage: a warm dataset entry returns
    immediately (loading it only if ``want_dataset``); otherwise cached
    intermediates (pickled stage payloads) seed the remaining stages,
    which are computed and committed. ``force`` recomputes everything,
    overwriting nothing (identical keys re-commit identical bytes).
    """
    with trace_span("pipeline.shard", label=shard.label, force=force) as span:
        report, dataset = _run_shard_stages(shard, cache, want_dataset, force)
        if span is not None:
            span.set(n_jobs=report.n_jobs, fully_cached=report.fully_cached)
        return report, dataset


def _run_shard_stages(
    shard: ShardConfig,
    cache: ArtifactCache,
    want_dataset: bool,
    force: bool,
) -> tuple[ShardReport, JobDataset | None]:
    keys = {s: stage_key(shard, s) for s in STAGES}
    report = ShardReport(config=shard, dataset_key=keys["dataset"])
    meta_common = {"config": shard.to_dict(), "label": shard.label}

    def staged(stage: str, cached: bool):
        """One stage's trace span (a child of the shard span)."""
        return trace_span(
            "pipeline.stage", stage=stage, cached=cached, shard=shard.label
        )

    def timed(
        stage: str, cached: bool, n_items: int, t0: float,
        n_traces: int = 0, n_gaps: int = 0,
    ) -> None:
        seconds = time.perf_counter() - t0
        _STAGE_SECONDS.observe(seconds, stage=stage, cached=str(cached).lower())
        _STAGE_RUNS.inc(stage=stage, cached=str(cached).lower())
        report.stages.append(
            StageTiming(
                stage=stage, key=keys[stage],
                seconds=seconds, cached=cached,
                n_items=n_items, n_traces=n_traces, n_gaps=n_gaps,
            )
        )

    # Fast path: final artifact already committed.
    if not force and cache.has("dataset", keys["dataset"]):
        with staged("dataset", True):
            t0 = time.perf_counter()
            meta = cache.load_meta("dataset", keys["dataset"])
            dataset = (
                load_dataset(cache.entry_dir("dataset", keys["dataset"]))
                if want_dataset
                else None
            )
            timed("dataset", True, meta.get("n_jobs", 0), t0,
                  meta.get("n_traces", 0), meta.get("n_gaps", 0))
        report.n_jobs = meta.get("n_jobs", 0)
        report.n_traces = meta.get("n_traces", 0)
        return report, dataset

    # Resume from the deepest cached intermediate.
    specs = scheduled = sample = None
    if not force and cache.has("telemetry", keys["telemetry"]):
        with staged("telemetry", True):
            t0 = time.perf_counter()
            sample = cache.load_pickle("telemetry", keys["telemetry"])
            timed(
                "telemetry", True, sample.num_jobs, t0, len(sample.traces),
                # Pickles cached before gap accounting lack the field.
                getattr(sample, "n_gaps", 0),
            )
    if not force and cache.has("schedule", keys["schedule"]):
        with staged("schedule", True):
            t0 = time.perf_counter()
            scheduled = cache.load_pickle("schedule", keys["schedule"])
            timed("schedule", True, len(scheduled), t0)
    elif not force and cache.has("workload", keys["workload"]):
        with staged("workload", True):
            t0 = time.perf_counter()
            specs = cache.load_pickle("workload", keys["workload"])
            timed("workload", True, len(specs), t0)

    cluster, params = build_inputs(
        shard.system, seed=shard.seed, num_nodes=shard.num_nodes,
        num_users=shard.num_users, horizon_s=shard.horizon_s,
        params_overrides=shard.overrides_dict or None,
        variability_sigma=shard.variability_sigma,
    )

    if scheduled is None:
        if specs is None:
            with staged("workload", False):
                t0 = time.perf_counter()
                generator = WorkloadGenerator(
                    params, cluster.num_nodes, seed=shard.seed
                )
                specs = generator.generate()
                cache.store_pickle(
                    "workload", keys["workload"], specs,
                    {**meta_common, "n_items": len(specs),
                     "seconds": round(time.perf_counter() - t0, 4),
                 "peak_rss_bytes": peak_rss_bytes()},
                )
                timed("workload", False, len(specs), t0)
        with staged("schedule", False):
            t0 = time.perf_counter()
            scheduled = simulate(
                specs, cluster.num_nodes, backfill_depth=shard.backfill_depth
            )
            cache.store_pickle(
                "schedule", keys["schedule"], scheduled,
                {**meta_common, "n_items": len(scheduled),
                 "seconds": round(time.perf_counter() - t0, 4),
                 "peak_rss_bytes": peak_rss_bytes()},
            )
            timed("schedule", False, len(scheduled), t0)

    if sample is None:
        with staged("telemetry", False):
            t0 = time.perf_counter()
            sample = sample_telemetry(
                cluster, scheduled, params.horizon_s,
                seed=shard.seed, max_traces=shard.max_traces,
            )
            cache.store_pickle(
                "telemetry", keys["telemetry"], sample,
                {**meta_common, "n_items": sample.num_jobs,
                 "n_traces": len(sample.traces),
                 "n_gaps": sample.n_gaps,
                 "seconds": round(time.perf_counter() - t0, 4),
                 "peak_rss_bytes": peak_rss_bytes()},
            )
            timed(
                "telemetry", False, sample.num_jobs, t0,
                len(sample.traces), sample.n_gaps,
            )

    with staged("dataset", False):
        t0 = time.perf_counter()
        dataset = join_dataset(cluster, scheduled, params.horizon_s, sample)
        artifact_meta: dict[str, Any] = {}

        def build(tmp_dir):
            artifact_meta.update(save_dataset(dataset, tmp_dir))
            return {
                "n_jobs": artifact_meta["n_jobs"],
                "n_traces": artifact_meta["n_traces"],
                "n_minutes": artifact_meta["n_minutes"],
                # Read once the files are written: the write is the stage.
                "seconds": round(time.perf_counter() - t0, 4),
                "peak_rss_bytes": peak_rss_bytes(),
            }

        cache.store_tree(
            "dataset", keys["dataset"], build,
            # The gap count rides on the final artifact too, so a later
            # cache-hit load still reports how many samples were filled in.
            {**meta_common, "n_gaps": getattr(sample, "n_gaps", 0)},
        )
        timed("dataset", False, dataset.num_jobs, t0, len(dataset.traces),
              getattr(sample, "n_gaps", 0))
    report.n_jobs = dataset.num_jobs
    report.n_traces = len(dataset.traces)
    return report, dataset if want_dataset else None
