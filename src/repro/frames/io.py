"""CSV and NPZ persistence for :class:`~repro.frames.table.Table`.

CSV is the interchange format the paper's Zenodo release uses; NPZ is
the fast binary format used for intermediate artifacts. Both round-trip
column order, and NPZ round-trips dtypes exactly.

NPZ is also written and read one column at a time: :func:`write_npz`
accepts a stream of ``(name, column)`` pairs and :func:`iter_npz`
yields one, so a pass over a large table can hold one column at a
time. The on-disk layout (one ``col::<name>`` member per column, then
an ``__order__`` member) is known only to this module.
"""

from __future__ import annotations

import csv
import io
import os
import zipfile
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import ColumnMismatchError, FrameError
from repro.frames.column import as_column
from repro.frames.table import Table

__all__ = ["write_csv", "read_csv", "write_npz", "iter_npz", "read_npz"]


def write_csv(table: Table, path: str | os.PathLike) -> None:
    """Write ``table`` to ``path`` with a header row."""
    path = Path(path)
    names = table.column_names
    cols = [table[n] for n in names]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for i in range(len(table)):
            writer.writerow([_render(col[i]) for col in cols])


def _render(value) -> str:
    if isinstance(value, (np.floating, float)):
        return repr(float(value))
    return str(value)


def read_csv(path: str | os.PathLike) -> Table:
    """Read a CSV written by :func:`write_csv` (or the Zenodo traces).

    Column dtypes are inferred per column: int if every cell parses as
    int, else float if every cell parses as float, else string.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            return Table({})
        raw: list[list[str]] = [[] for _ in header]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FrameError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            for cell, bucket in zip(row, raw):
                bucket.append(cell)
    return Table({name: _infer(cells) for name, cells in zip(header, raw)})


def _infer(cells: list[str]) -> np.ndarray:
    try:
        return np.asarray([int(c) for c in cells], dtype=np.int64)
    except ValueError:
        pass
    try:
        return np.asarray([float(c) for c in cells], dtype=float)
    except ValueError:
        pass
    return np.asarray(cells, dtype=str)


# Fixed zip member timestamp (the zip epoch). ``np.savez_compressed``
# stamps members with the current time, which makes two writes of the
# same table differ at the byte level; the pipeline's determinism
# guarantee (serial == parallel, cold == warm) compares artifact bytes,
# so NPZ writing pins the timestamp instead.
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)

# ``ZipFile.open(info, "w")`` takes the deflate level from the member's
# ZipInfo: Python 3.13 names it ``compress_level`` (keeping the old name
# as an alias), 3.11 and 3.12 only ``_compresslevel``.
_LEVEL_ATTR = (
    "compress_level" if hasattr(zipfile.ZipInfo, "compress_level") else "_compresslevel"
)
_SLICE_BYTES = 1 << 18  # numpy's own read buffer size


def write_npz(
    table: Table | Iterable[tuple[str, object]],
    path: str | os.PathLike,
    compress: bool = True,
) -> None:
    """Write ``table`` to an NPZ file preserving dtypes.

    ``table`` is a :class:`Table` or an iterable of ``(name, column)``
    pairs, such as :func:`iter_npz`, :func:`concat_columns` or a
    generator that builds each column when asked. Each column is
    streamed into its zip member and released before the next one is
    requested, so a generator's columns are never all in memory at
    once. Columns must share one length and have distinct names; on any
    error (a generator's included) the partial file is removed.

    Byte-deterministic: writing the same table twice produces identical
    files (member order, contents, and timestamps are all fixed), and a
    table and a stream of the same columns write the same bytes.
    ``compress=False`` stores members raw (ZIP_STORED) — used for
    transient spill shards where deflate time outweighs the disk saved;
    published artifacts keep the compressed default.

    Compression is deflate level 1: on million-job artifacts level 6
    spends ~4x the CPU for a few percent of extra ratio, and NPZ write
    time is a top-line cost of the streaming compactor
    (docs/PERFORMANCE.md). The level is part of the artifact bytes, so
    it is pinned here rather than left to the zlib default.
    """
    path = Path(path)
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    columns = table.to_dict().items() if isinstance(table, Table) else table
    names: list[str] = []
    length = 0
    zf = zipfile.ZipFile(path, "w", method)
    try:
        with zf:
            for name, values in columns:
                column = as_column(values, name)
                if name in names or (names and len(column) != length):
                    raise ColumnMismatchError(
                        f"column {name!r} ({len(column)} rows) does not fit "
                        f"the columns before it {names} ({length} rows)"
                    )
                length = len(column)
                _write_member(zf, f"col::{name}", column, method)
                names.append(name)
                # Drop this column before the stream builds the next one.
                del values, column
            _write_member(zf, "__order__", np.asarray(names, dtype=str), method)
    except BaseException:
        path.unlink(missing_ok=True)
        raise


def _write_member(zf: zipfile.ZipFile, name: str, array: np.ndarray, method: int) -> None:
    """Stream ``array`` into ``zf`` as ``<name>.npy``.

    The member holds the same bytes ``np.save`` would write (a format 1.0
    header, then the raw C-order data), fed to the zip in 256 KiB slices
    of the array itself, so writing copies (and deflates) no more than a
    slice at a time. The member is stored exactly as ``ZipFile.writestr``
    would store the whole image.
    """
    array = np.ascontiguousarray(array)
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, np.lib.format.header_data_from_array_1_0(array)
    )
    info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
    info.compress_type = method
    info.external_attr = 0o644 << 16
    setattr(info, _LEVEL_ATTR, 1)
    # ``writestr`` knows the member's size before it opens it, and the
    # size decides whether the local header carries ZIP64 fields; give
    # the streamed member the same exact size.
    info.file_size = header.tell() + array.nbytes
    data = array.view(np.uint8)
    with zf.open(info, "w") as member:
        member.write(header.getvalue())
        for start in range(0, data.size, _SLICE_BYTES):
            member.write(data[start:start + _SLICE_BYTES])


def iter_npz(path: str | os.PathLike) -> Iterator[tuple[str, np.ndarray]]:
    """Yield the columns of a :func:`write_npz` file as ``(name, column)``.

    Columns come in stored order and each step loads one zip member, so
    a consumer that drops each column before taking the next holds one
    column at a time. Raises :class:`FrameError` (at the first step) for
    an NPZ file :func:`write_npz` did not write.
    """
    with np.load(Path(path), allow_pickle=False) as data:
        if "__order__" not in data:
            raise FrameError(f"{path} is not a frames NPZ file (missing __order__)")
        for name in data["__order__"].tolist():
            yield name, data[f"col::{name}"]


def read_npz(path: str | os.PathLike) -> Table:
    """Read a table written by :func:`write_npz`."""
    return Table(dict(iter_npz(path)))
