"""Column-at-a-time NPZ: the streamed writer, the lazy reader, the merge.

``write_npz`` streams each column into its zip member instead of building
the whole ``.npy`` image in memory first. The artifact bytes are a
contract (golden digests, resumable spill shards), so the streamed writer
is compared here with the whole-image writer it replaced, rebuilt inside
the test.
"""

import io
import zipfile

import numpy as np
import pytest

from repro.errors import ColumnMismatchError, FrameError
from repro.frames import Table, concat, concat_columns, iter_npz, write_npz

# numpy's own writer copies arrays out in 16 MiB pieces; a column larger
# than that crosses every piece boundary.
_BIG = 16 * 1024 * 1024 // 8 + 100_000


def _whole_image_npz(table: Table, compress: bool) -> bytes:
    """The NPZ bytes of the former writer: each member's ``.npy`` image
    built in a ``BytesIO`` and stored with ``ZipFile.writestr``."""
    method = zipfile.ZIP_DEFLATED if compress else zipfile.ZIP_STORED
    arrays = {f"col::{n}": np.ascontiguousarray(table[n]) for n in table.column_names}
    arrays["__order__"] = np.asarray(table.column_names, dtype=str)
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", method) as zf:
        for name, arr in arrays.items():
            buf = io.BytesIO()
            np.lib.format.write_array(buf, arr, allow_pickle=False)
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = method
            info.external_attr = 0o644 << 16
            zf.writestr(info, buf.getvalue(), compresslevel=1)
    return out.getvalue()


TABLES = {
    "empty": Table({}),
    "zero_rows": Table({"x": np.zeros(0, dtype=np.int64), "s": np.zeros(0, dtype="<U3")}),
    "strings": Table({"user": ["alice", "bob", ""], "job": [3, 1, 2],
                      "ok": [True, False, True]}),
    "mixed": Table({"f32": np.array([1.5, -2.25], dtype=np.float32),
                    "u8": np.array([7, 255], dtype=np.uint8)}),
    "big": Table({"minute": np.arange(_BIG, dtype=np.int64),
                  "power_w": np.linspace(0.0, 400.0, _BIG)}),
}


@pytest.mark.parametrize("compress", [True, False], ids=["deflate", "stored"])
@pytest.mark.parametrize("name", list(TABLES))
def test_streamed_writer_matches_whole_image_writer(tmp_path, name, compress):
    table = TABLES[name]
    expected = _whole_image_npz(table, compress)
    write_npz(table, tmp_path / "table.npz", compress=compress)
    assert (tmp_path / "table.npz").read_bytes() == expected
    stream = ((n, table[n]) for n in table.column_names)
    write_npz(stream, tmp_path / "stream.npz", compress=compress)
    assert (tmp_path / "stream.npz").read_bytes() == expected


def test_lazy_reader_round_trips_in_stored_order(tmp_path):
    table = TABLES["strings"]
    write_npz(table, tmp_path / "t.npz")
    pairs = list(iter_npz(tmp_path / "t.npz"))
    assert [n for n, _ in pairs] == table.column_names
    for n, column in pairs:
        assert column.dtype == table[n].dtype
        np.testing.assert_array_equal(column, table[n])
    write_npz(iter_npz(tmp_path / "t.npz"), tmp_path / "copy.npz")
    assert (tmp_path / "copy.npz").read_bytes() == (tmp_path / "t.npz").read_bytes()


def test_lazy_reader_rejects_foreign_file_at_first_step(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, a=np.zeros(3))
    reader = iter_npz(path)
    with pytest.raises(FrameError, match="__order__"):
        next(reader)


def test_concat_columns_matches_concat(tmp_path):
    parts = [TABLES["strings"], TABLES["strings"].head(1), TABLES["strings"].take([2, 0])]
    for i, part in enumerate(parts):
        write_npz(part, tmp_path / f"{i}.npz")
    readers = [iter_npz(tmp_path / f"{i}.npz") for i in range(len(parts))]
    assert Table(dict(concat_columns(readers))) == concat(parts)
    # One stream passes its columns through.
    assert Table(dict(concat_columns([iter_npz(tmp_path / "0.npz")]))) == parts[0]


@pytest.mark.parametrize("other", [
    Table({"job": [1], "user": ["x"], "ok": [True]}),   # another name
    Table({"user": ["x"], "job": [1]}),                  # a column short
    Table({"user": ["x"], "job": [1], "ok": [True], "extra": [0]}),
], ids=["renamed", "missing", "extra"])
def test_concat_columns_rejects_differing_names(tmp_path, other):
    write_npz(TABLES["strings"], tmp_path / "a.npz")
    write_npz(other, tmp_path / "b.npz")
    merged = concat_columns([iter_npz(tmp_path / "a.npz"), iter_npz(tmp_path / "b.npz")])
    with pytest.raises(ColumnMismatchError):
        write_npz(merged, tmp_path / "out.npz")
    assert not (tmp_path / "out.npz").exists()


@pytest.mark.parametrize("columns", [
    [("a", np.arange(3)), ("b", np.arange(4))],
    [("a", np.arange(3)), ("a", np.arange(3))],
    [("a", np.zeros((2, 2)))],
], ids=["unequal_lengths", "duplicate_name", "not_1d"])
def test_bad_stream_raises_and_leaves_no_file(tmp_path, columns):
    path = tmp_path / "bad.npz"
    with pytest.raises(ColumnMismatchError):
        write_npz(iter(columns), path)
    assert not path.exists()


def test_failing_generator_leaves_no_file(tmp_path):
    def columns():
        yield "a", np.arange(3)
        raise RuntimeError("source failed")

    path = tmp_path / "partial.npz"
    with pytest.raises(RuntimeError, match="source failed"):
        write_npz(columns(), path)
    assert not path.exists()

