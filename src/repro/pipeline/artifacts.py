"""The dataset stage's on-disk artifact: a build-once, analyze-many dir.

A cached dataset is stored in the repository's *open-data* formats (the
same schemas ``repro.telemetry.schema`` / ``samples_schema`` document
for the paper's Zenodo-style release), not as an opaque pickle:

========================  ====================================================
file                      contents
========================  ====================================================
``jobs.npz``              job-level table (``JOB_COLUMNS`` schema)
``samples.npz``           flat (job, node, minute) power samples of the
                          instrumented subset (absent when there are none)
``timeline.npz``          per-minute ``active_nodes`` / ``job_power_watts``
``dataset.json``          system spec fields, horizon, trace order, counts
========================  ====================================================

Because every file is written with the byte-deterministic NPZ writer
(:func:`repro.frames.write_npz`), two builds of the same configuration —
serial or parallel, on any worker — commit byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cluster.specs import SystemSpec
from repro.errors import CacheError, SchemaError
from repro.frames import Table, read_npz, write_npz
from repro.telemetry.dataset import JobDataset
from repro.telemetry.samples_schema import load_traces, sample_columns, save_samples
from repro.telemetry.schema import load_jobs_npz, save_jobs_npz

__all__ = [
    "DATASET_META_NAME", "JOBS_NAME", "SAMPLES_NAME", "TIMELINE_NAME",
    "save_dataset", "write_dataset_meta", "load_dataset", "load_jobs",
]

DATASET_META_NAME = "dataset.json"
JOBS_NAME = "jobs.npz"
SAMPLES_NAME = "samples.npz"
TIMELINE_NAME = "timeline.npz"


def save_dataset(dataset: JobDataset, out_dir: str | os.PathLike) -> dict:
    """Write ``dataset`` into ``out_dir`` as the open-data artifact.

    Returns the summary dict also stored in ``dataset.json``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_jobs_npz(dataset.jobs, out_dir / JOBS_NAME)
    if dataset.traces:
        save_samples(
            sample_columns(dataset.traces, dataset.trace_allocations),
            out_dir / SAMPLES_NAME,
        )
    write_npz(
        Table(
            {
                "active_nodes": dataset.active_nodes,
                "job_power_watts": dataset.job_power_watts,
            }
        ),
        out_dir / TIMELINE_NAME,
    )
    return write_dataset_meta(
        out_dir, dataset.spec, dataset.horizon_s, dataset.num_jobs,
        dataset.num_minutes, list(dataset.traces),
    )


def write_dataset_meta(
    out_dir: Path, spec: SystemSpec, horizon_s: int, n_jobs: int, n_minutes: int,
    trace_order: list[int],
) -> dict:
    """Write an artifact's ``dataset.json`` and return its dict.

    ``trace_order`` lists the instrumented jobs' ids in assembly (start)
    order: traces are keyed by job id, and a reloaded dataset iterates
    them in that order, as the built one did.
    """
    meta = {
        "system": spec.name,
        "horizon_s": int(horizon_s),
        "n_jobs": n_jobs,
        "n_traces": len(trace_order),
        "n_minutes": n_minutes,
        "spec": {f: getattr(spec, f) for f in spec.__dataclass_fields__},
        "trace_order": [int(k) for k in trace_order],
    }
    (out_dir / DATASET_META_NAME).write_text(json.dumps(meta, indent=2, sort_keys=True))
    return meta


def load_jobs(artifact_dir: str | os.PathLike) -> Table:
    """The job-level table of a :func:`save_dataset` artifact, alone.

    Reads ``jobs.npz`` only (validated against ``JOB_COLUMNS``), never
    the samples or the timeline: what a consumer of job-level fields,
    such as a pre-execution power predictor, needs.
    """
    artifact_dir = Path(artifact_dir)
    if not (artifact_dir / DATASET_META_NAME).is_file():
        raise CacheError(f"{artifact_dir} is not a dataset artifact (no dataset.json)")
    return load_jobs_npz(artifact_dir / JOBS_NAME)


def load_dataset(artifact_dir: str | os.PathLike) -> JobDataset:
    """Rebuild a :class:`JobDataset` from a :func:`save_dataset` artifact.

    The traces come from ``samples.npz`` through
    :func:`~repro.telemetry.samples_schema.load_traces`, one column at a
    time, and both ``traces`` and ``trace_allocations`` are keyed in
    ``dataset.json``'s ``trace_order``, as the built dataset was. Raises
    :class:`SchemaError` unless ``trace_order`` lists every sampled job
    exactly once and nothing else (a trace order with no
    ``samples.npz`` included), besides the errors of ``load_traces``.
    """
    artifact_dir = Path(artifact_dir)
    jobs = load_jobs(artifact_dir)
    meta = json.loads((artifact_dir / DATASET_META_NAME).read_text())
    spec_fields = dict(meta["spec"])
    spec_fields["inflow_temperature_c"] = tuple(spec_fields["inflow_temperature_c"])
    spec = SystemSpec(**spec_fields)

    timeline = read_npz(artifact_dir / TIMELINE_NAME)

    order: list[int] = meta["trace_order"]
    samples_path = artifact_dir / SAMPLES_NAME
    traces, allocations = (
        load_traces(samples_path, jobs) if samples_path.is_file() else ({}, {})
    )
    _check_trace_order(artifact_dir, order, traces)

    return JobDataset(
        spec=spec,
        jobs=jobs,
        traces={jid: traces[jid] for jid in order},
        horizon_s=int(meta["horizon_s"]),
        active_nodes=timeline["active_nodes"],
        job_power_watts=timeline["job_power_watts"],
        trace_allocations={jid: allocations[jid] for jid in order},
    )


def _check_trace_order(artifact_dir: Path, order: list[int], sampled) -> None:
    """Raise :class:`SchemaError`, naming the first offending job ids,
    unless ``order`` lists each job in ``sampled`` exactly once."""
    listed, ranked = set(order), sorted(order)
    for problem, ids in (
        ("lists jobs without samples", [j for j in order if j not in sampled]),
        ("omits sampled jobs", [j for j in sampled if j not in listed]),
        ("repeats jobs", [a for a, b in zip(ranked, ranked[1:]) if a == b]),
    ):
        if ids:
            raise SchemaError(
                f"{artifact_dir / DATASET_META_NAME}: trace_order {problem} {ids[:5]}"
            )
