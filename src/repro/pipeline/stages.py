"""Stage execution: run one shard and cache its dataset.

The shard configuration, the dataset key, and timing records live in
:mod:`repro.pipeline.config` (kept import-light for the CLI's
bookkeeping subcommands); this module owns the heavy part — running the
``workload -> schedule -> telemetry -> dataset`` steps in memory and
committing the one ``dataset`` entry, which pulls in the workload
generator, the scheduler engine, and the telemetry samplers.
"""

from __future__ import annotations

import time

from repro.obs.tracing import trace_span
from repro.pipeline.artifacts import load_dataset, save_dataset
from repro.pipeline.cache import ArtifactCache, stage_timing
from repro.pipeline.config import ShardConfig, ShardReport, stage_key
from repro.scheduler import simulate
from repro.telemetry.dataset import (
    JobDataset,
    build_inputs,
    join_dataset,
    sample_telemetry,
)
from repro.workload.generator import WorkloadGenerator

__all__ = ["run_shard"]


def run_shard(
    shard: ShardConfig,
    cache: ArtifactCache,
    want_dataset: bool = True,
    force: bool = False,
) -> tuple[ShardReport, JobDataset | None]:
    """Build one shard's dataset, or load it from the cache.

    A warm ``dataset`` entry returns immediately (loading it only if
    ``want_dataset``). Otherwise the workload is generated, scheduled,
    sampled and joined in memory, and the joined dataset is committed
    as the one cache entry; each step's time lands in the report.
    ``force`` rebuilds even on a hit, overwriting nothing (an identical
    key re-commits identical bytes).
    """
    with trace_span("pipeline.shard", label=shard.label, force=force) as span:
        report, dataset = _run_shard_steps(shard, cache, want_dataset, force)
        if span is not None:
            span.set(n_jobs=report.n_jobs, fully_cached=report.fully_cached)
        return report, dataset


def _run_shard_steps(
    shard: ShardConfig,
    cache: ArtifactCache,
    want_dataset: bool,
    force: bool,
) -> tuple[ShardReport, JobDataset | None]:
    key = stage_key(shard, "dataset")
    report = ShardReport(config=shard, dataset_key=key)

    def step(stage: str, cached: bool):
        """One step's trace span (a child of the shard span)."""
        return trace_span(
            "pipeline.stage", stage=stage, cached=cached, shard=shard.label
        )

    if not force and cache.has("dataset", key):
        with step("dataset", True):
            t0 = time.perf_counter()
            meta = cache.load_meta("dataset", key)
            dataset = (
                load_dataset(cache.entry_dir("dataset", key))
                if want_dataset
                else None
            )
            report.record("dataset", key, t0, True, meta.get("n_jobs", 0),
                          meta.get("n_traces", 0), meta.get("n_gaps", 0))
        report.n_jobs = meta.get("n_jobs", 0)
        report.n_traces = meta.get("n_traces", 0)
        return report, dataset

    cluster, params = build_inputs(
        shard.system, seed=shard.seed, num_nodes=shard.num_nodes,
        num_users=shard.num_users, horizon_s=shard.horizon_s,
        params_overrides=shard.overrides_dict or None,
        variability_sigma=shard.variability_sigma,
    )
    with step("workload", False):
        t0 = time.perf_counter()
        specs = WorkloadGenerator(params, cluster.num_nodes, seed=shard.seed).generate()
        report.record("workload", key, t0, False, len(specs))
    with step("schedule", False):
        t0 = time.perf_counter()
        scheduled = simulate(
            specs, cluster.num_nodes, backfill_depth=shard.backfill_depth
        )
        report.record("schedule", key, t0, False, len(scheduled))
    with step("telemetry", False):
        t0 = time.perf_counter()
        sample = sample_telemetry(
            cluster, scheduled, params.horizon_s,
            seed=shard.seed, max_traces=shard.max_traces,
        )
        report.record("telemetry", key, t0, False, sample.num_jobs,
                      len(sample.traces), sample.n_gaps)
    with step("dataset", False):
        t0 = time.perf_counter()
        dataset = join_dataset(cluster, scheduled, params.horizon_s, sample)

        def build(tmp_dir):
            meta = save_dataset(dataset, tmp_dir)
            return {"n_jobs": meta["n_jobs"], "n_traces": meta["n_traces"],
                    "n_minutes": meta["n_minutes"], **stage_timing(t0)}

        cache.store_tree(
            "dataset", key, build,
            # The gap count rides on the artifact, so a later cache-hit
            # load still reports how many samples were filled in.
            {"config": shard.to_dict(), "label": shard.label,
             "n_gaps": sample.n_gaps},
        )
        report.record("dataset", key, t0, False, dataset.num_jobs,
                      len(dataset.traces), sample.n_gaps)
    report.n_jobs = dataset.num_jobs
    report.n_traces = len(dataset.traces)
    return report, dataset if want_dataset else None
