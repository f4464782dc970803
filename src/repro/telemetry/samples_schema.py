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

from repro.errors import ColumnMismatchError, SchemaError
from repro.frames import Table, open_npz, read_csv, read_npz, write_csv, write_npz
from repro.telemetry.dataset import JobDataset
from repro.telemetry.trace import JobPowerTrace

__all__ = [
    "SAMPLE_COLUMNS",
    "sample_columns",
    "samples_table",
    "validate_samples",
    "traces_from_samples",
    "load_traces",
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


def _check(name: str, column: np.ndarray) -> np.ndarray:
    """``column``, unless it breaks the sample schema as column ``name``:
    then raise :class:`SchemaError`."""
    kind = SAMPLE_COLUMNS.get(name)
    if kind is not None and column.dtype.kind != kind:
        raise SchemaError(
            f"column {name!r} has dtype kind {column.dtype.kind!r}, expected {kind!r}"
        )
    if name == "power_w" and np.any(column < 0):
        raise SchemaError("power_w must be non-negative")
    return column


def _checked(samples: Table | Columns) -> Iterator[tuple[str, np.ndarray]]:
    """Pass a table's columns or a column stream through, raising
    :class:`SchemaError` on the first column (or, at the end, the first
    missing one) that breaks the sample schema."""
    columns = samples.to_dict().items() if isinstance(samples, Table) else samples
    seen = set()
    for name, column in columns:
        seen.add(name)
        yield name, _check(name, column)
        # Let the stream build its next column without this one alive.
        del column
    _require_columns(seen)


def _require_columns(names) -> None:
    missing = [c for c in SAMPLE_COLUMNS if c not in names]
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

    Rows may come in any order. Traces are returned in ascending job id,
    with each job's physical node ids (one per node rank) as its
    allocation. ``jobs`` (optional, the job-level table) supplies
    user/app identity; without it those fields are filled with
    placeholders. Raises :class:`SchemaError` when the table breaks the
    schema or a job lacks, or repeats, a (node_rank, minute) sample.
    """
    return _traces(samples.column_names, samples.__getitem__, jobs)


def load_traces(
    path: str | os.PathLike, jobs: Table | None = None
) -> tuple[dict[int, JobPowerTrace], dict[int, np.ndarray]]:
    """:func:`traces_from_samples` of a samples NPZ, never holding the table.

    Reads the file's columns by name, one at a time, and drops each
    before reading the next, so it holds at most one sample column beside
    the traces it builds (:func:`load_samples` holds all five). Raises
    :class:`~repro.errors.FrameError` for an NPZ file
    :func:`~repro.frames.write_npz` did not write and
    :class:`~repro.errors.ColumnMismatchError` for columns of unequal
    length, besides the errors of :func:`traces_from_samples`.
    """
    with open_npz(path) as (names, column):
        return _traces(names, column, jobs)


#: The columns that fix the rows' layout, in the order they are read.
_LAYOUT = ("job_id", "node_rank", "minute")


def _traces(
    names: list[str], column: Callable[[str], np.ndarray], jobs: Table | None
) -> tuple[dict[int, JobPowerTrace], dict[int, np.ndarray]]:
    """The traces and allocations of the sample table whose columns are
    ``names``, each returned by ``column(name)``.

    Asks for job_id, node_rank, minute, node_id and power_w in that
    order and keeps none of them past its step, so a ``column`` that
    loads on demand holds one column beside the traces. Every writer
    here emits the rows grouped by job and row-major within it (node
    rank, then minute), and each trace is then one run of rows; a table
    in any other order is sorted into that layout once.
    """
    _require_columns(names)
    rows: list[int] = []
    order: np.ndarray | None = None

    def get(name: str) -> np.ndarray:
        values = _check(name, column(name))
        rows.append(len(values))
        if rows[-1] != rows[0]:
            raise ColumnMismatchError(
                f"column {name!r} has {rows[-1]} rows, the ones before it {rows[0]}"
            )
        return values if order is None else values[order]

    runs = _runs(get)
    if runs is None:
        # Not grouped (a shuffled CSV, say): from here on ``get`` returns
        # every column in (job_id, node_rank, minute) order.
        order = np.lexsort([get(name) for name in reversed(_LAYOUT)])
        runs = _runs(get)
        if runs is None:
            raise _layout_error(get)
    runs.sort()

    nodes = get("node_id")
    allocations = {
        jid: np.array(nodes[lo:lo + n * m:m], dtype=np.int64) for jid, lo, n, m in runs
    }
    del nodes
    identity: dict[int, tuple[str, str, str]] = {}
    if jobs is not None:
        for jid, user, app, system in zip(
            jobs["job_id"].tolist(), jobs["user"].tolist(),
            jobs["app"].tolist(), jobs["system"].tolist(),
        ):
            identity[int(jid)] = (user, app, system)
    power = get("power_w")
    traces: dict[int, JobPowerTrace] = {}
    for jid, lo, n, m in runs:
        user, app, system = identity.get(jid, ("unknown", "unknown", "unknown"))
        # An owned copy, so no trace keeps the column alive.
        matrix = np.array(power[lo:lo + n * m].reshape(n, m), dtype=np.float64)
        traces[jid] = JobPowerTrace(
            job_id=jid, user_id=user, app=app, system=system, matrix=matrix
        )
    return traces, allocations


def _runs(get: Callable[[str], np.ndarray]) -> list[tuple[int, int, int, int]] | None:
    """Each job's ``(job_id, first row, nodes, minutes)`` if its rows are
    one run, ranks ``repeat(arange(nodes), minutes)`` and minutes
    ``tile(arange(minutes), nodes)``; None if any job's are not."""
    ids = get("job_id")
    firsts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    if len(ids):
        firsts = np.r_[0, firsts]
    job_ids, total = ids[firsts], len(ids)
    del ids
    if len(np.unique(job_ids)) < len(job_ids):
        return None
    bounds = [*firsts.tolist(), total]
    runs = []
    ranks = get("node_rank")
    for jid, lo, hi in zip(job_ids.tolist(), bounds[:-1], bounds[1:]):
        n = int(ranks[hi - 1]) + 1
        m = (hi - lo) // n if n > 0 else 0
        if n * m != hi - lo or not np.all(
            ranks[lo:hi].reshape(n, m) == np.arange(n)[:, None]
        ):
            return None
        runs.append((jid, lo, n, m))
    del ranks
    minutes = get("minute")
    for _, lo, n, m in runs:
        if not np.all(minutes[lo:lo + n * m].reshape(n, m) == np.arange(m)):
            return None
    return runs


def _layout_error(get: Callable[[str], np.ndarray]) -> SchemaError:
    """The error for sorted rows that :func:`_runs` rejects, naming the
    first job (in id order) that lacks or repeats a cell."""
    ids, ranks, minutes = (get(name) for name in _LAYOUT)
    starts = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist()
    for lo, hi in zip([0, *starts], [*starts, len(ids)]):
        job_ranks, job_minutes = ranks[lo:hi], minutes[lo:hi]
        n, m = int(job_ranks.max()) + 1, int(job_minutes.max()) + 1
        if hi - lo != n * m:
            return SchemaError(f"job {ids[lo]}: expected {n * m} samples, got {hi - lo}")
        # The count alone passes a duplicated row standing in for a
        # missing one, which would leave a matrix cell unwritten.
        written = np.zeros((n, m), dtype=bool)
        written[job_ranks, job_minutes] = True
        if not written.all():
            return SchemaError(
                f"job {ids[lo]}: expected one sample per (node_rank, minute), "
                f"{n * m - int(written.sum())} missing and as many duplicated"
            )
    return SchemaError("node_rank and minute must count up from 0 within each job")


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
