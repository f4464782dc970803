"""Time-resolved node-sample schema (the dataset's second table).

The paper's release contains not only job-level aggregates but
time-resolved node samples for the instrumented month. This module
round-trips that table: one row per (job, node, minute) with the
measured watts, plus reconstruction of :class:`JobPowerTrace` matrices
from the flat table — so a consumer of the published CSVs can rebuild
every temporal/spatial analysis without the simulator.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import SchemaError
from repro.frames import Table, read_csv, read_npz, write_csv, write_npz
from repro.telemetry.dataset import JobDataset
from repro.telemetry.trace import JobPowerTrace

__all__ = [
    "SAMPLE_COLUMNS",
    "sample_columns",
    "samples_table",
    "validate_samples",
    "traces_from_samples",
    "save_samples",
    "load_samples",
]

SAMPLE_COLUMNS: dict[str, str] = {
    "job_id": "i",
    "node_id": "i",   # physical node id (cluster-wide)
    "node_rank": "i",  # rank of the node within the job (matrix row)
    "minute": "i",    # minute offset from job start
    "power_w": "f",
}

Columns = Iterable[tuple[str, np.ndarray]]


def sample_columns(
    traces: Mapping[int, JobPowerTrace],
    allocations: Mapping[int, np.ndarray],
) -> Iterator[tuple[str, np.ndarray]]:
    """Yield the flat (job, node, minute) sample columns of ``traces``.

    Pairs ``(name, column)`` come in :data:`SAMPLE_COLUMNS` order. Rows
    follow ``traces``' iteration (start) order and, within a job, its
    matrix row-major (node rank, then minute); a job missing from
    ``allocations`` gets physical node ids ``0..n-1``. Each column is
    built only when asked for, and the generator keeps no reference to
    it afterwards, so a consumer that drops each column before taking
    the next (:func:`~repro.frames.write_npz` does) holds one at a time.
    """
    items = list(traces.items())
    total = sum(trace.matrix.size for _, trace in items)
    # The dtype np.concatenate of the matrices would have.
    dtypes = {trace.matrix.dtype for _, trace in items}
    power_dtype = np.result_type(*dtypes) if dtypes else np.dtype(float)

    def physical(job_id: int, trace: JobPowerTrace) -> np.ndarray:
        allocation = allocations.get(job_id)
        if allocation is None:
            return np.arange(trace.num_nodes, dtype=np.int64)
        return np.asarray(allocation, dtype=np.int64)

    yield "job_id", _fill(items, total, np.int64, lambda jid, t: jid)
    yield "node_id", _fill(items, total, np.int64, lambda jid, t: physical(jid, t)[:, None])
    yield "node_rank", _fill(
        items, total, np.int64, lambda jid, t: np.arange(t.num_nodes)[:, None]
    )
    yield "minute", _fill(items, total, np.int64, lambda jid, t: np.arange(t.num_minutes))
    yield "power_w", _fill(items, total, power_dtype, lambda jid, t: t.matrix)


def _fill(
    items: list[tuple[int, JobPowerTrace]],
    total: int,
    dtype,
    block: Callable[[int, JobPowerTrace], object],
) -> np.ndarray:
    """One sample column: each job's ``block`` broadcast over its rows."""
    out = np.empty(total, dtype=dtype)
    pos = 0
    for job_id, trace in items:
        n, m = trace.matrix.shape
        out[pos:pos + n * m].reshape(n, m)[...] = block(job_id, trace)
        pos += n * m
    return out


def samples_table(dataset: JobDataset) -> Table:
    """Flatten every instrumented trace into one (job, node, minute) table."""
    if not dataset.traces:
        raise SchemaError("dataset has no instrumented traces to flatten")
    return Table(dict(sample_columns(dataset.traces, dataset.trace_allocations)))


def _checked(samples: Table | Columns) -> Iterator[tuple[str, np.ndarray]]:
    """Pass a table's columns or a column stream through, raising
    :class:`SchemaError` on the first column (or, at the end, the first
    missing one) that breaks the sample schema."""
    columns = samples.to_dict().items() if isinstance(samples, Table) else samples
    seen = set()
    for name, column in columns:
        kind = SAMPLE_COLUMNS.get(name)
        if kind is not None and column.dtype.kind != kind:
            raise SchemaError(
                f"column {name!r} has dtype kind {column.dtype.kind!r}, "
                f"expected {kind!r}"
            )
        if name == "power_w" and np.any(column < 0):
            raise SchemaError("power_w must be non-negative")
        seen.add(name)
        yield name, column
        # Let the stream build its next column without this one alive.
        del column
    missing = [c for c in SAMPLE_COLUMNS if c not in seen]
    if missing:
        raise SchemaError(f"sample table is missing columns {missing}")


def validate_samples(samples: Table) -> None:
    """Raise :class:`SchemaError` unless ``samples`` matches the schema."""
    for _ in _checked(samples):
        pass


def traces_from_samples(
    samples: Table, jobs: Table | None = None
) -> tuple[dict[int, JobPowerTrace], dict[int, np.ndarray]]:
    """Rebuild trace matrices (and allocations) from a flat sample table.

    Rows may come in any order. Traces are returned in ascending job id.
    ``jobs`` (optional, the job-level table) supplies user/app identity;
    without it those fields are filled with placeholders.
    """
    validate_samples(samples)
    identity: dict[int, tuple[str, str, str]] = {}
    if jobs is not None:
        for jid, user, app, system in zip(
            jobs["job_id"].tolist(), jobs["user"].tolist(),
            jobs["app"].tolist(), jobs["system"].tolist(),
        ):
            identity[int(jid)] = (user, app, system)

    # One stable sort groups each job's rows, in their table order.
    order = np.argsort(samples["job_id"], kind="stable")
    sorted_ids = samples["job_id"][order]
    starts = np.flatnonzero(sorted_ids[1:] != sorted_ids[:-1]) + 1
    bounds = [0, *starts.tolist(), len(order)] if len(order) else [0]
    job_ids = sorted_ids[bounds[:-1]].tolist()
    del sorted_ids
    ranks_all, minutes_all = samples["node_rank"], samples["minute"]
    nodes_all, power_all = samples["node_id"], samples["power_w"]

    traces: dict[int, JobPowerTrace] = {}
    allocations: dict[int, np.ndarray] = {}
    for job_id, lo, hi in zip(job_ids, bounds[:-1], bounds[1:]):
        rows = order[lo:hi]
        ranks, minutes = ranks_all[rows], minutes_all[rows]
        n = int(ranks.max()) + 1
        m = int(minutes.max()) + 1
        if hi - lo != n * m:
            raise SchemaError(f"job {job_id}: expected {n * m} samples, got {hi - lo}")
        # The count alone passes a duplicated row standing in for a
        # missing one, which would leave a matrix cell unwritten.
        written = np.zeros((n, m), dtype=bool)
        written[ranks, minutes] = True
        if not written.all():
            raise SchemaError(
                f"job {job_id}: expected one sample per (node_rank, minute), "
                f"{n * m - int(written.sum())} missing and as many duplicated"
            )
        matrix = np.empty((n, m))
        matrix[ranks, minutes] = power_all[rows]
        physical = np.empty(n, dtype=np.int64)
        physical[ranks] = nodes_all[rows]
        user, app, system = identity.get(job_id, ("unknown", "unknown", "unknown"))
        traces[job_id] = JobPowerTrace(
            job_id=job_id, user_id=user, app=app, system=system, matrix=matrix
        )
        allocations[job_id] = physical
    return traces, allocations


def save_samples(samples: Table | Columns, path: str | os.PathLike) -> None:
    """Write the sample table (CSV or NPZ, by suffix), checked against
    the schema as :func:`validate_samples` checks it.

    ``samples`` is a :class:`~repro.frames.Table` or a column stream such
    as :func:`sample_columns`. NPZ checks and writes a stream one column
    at a time, and leaves no file when a check fails.
    """
    path = Path(path)
    if path.suffix not in (".csv", ".npz"):
        raise SchemaError(f"unsupported suffix {path.suffix!r} (use .csv or .npz)")
    columns = _checked(samples)
    if path.suffix == ".npz":
        write_npz(columns, path)
    else:
        write_csv(Table(dict(columns)), path)


def load_samples(path: str | os.PathLike) -> Table:
    path = Path(path)
    samples = read_csv(path) if path.suffix == ".csv" else read_npz(path)
    validate_samples(samples)
    return samples
