"""Tests for join and CSV/NPZ round-trips."""

import numpy as np
import pytest

from repro.errors import ColumnMismatchError, FrameError
from repro.frames import (
    Table,
    join,
    read_csv,
    read_npz,
    write_csv,
    write_npz,
)


class TestJoin:
    def left(self) -> Table:
        return Table({"job": [3, 1, 2, 3], "power": [30.0, 10.0, 20.0, 35.0]})

    def right(self) -> Table:
        return Table({"job": [1, 2, 3], "user": ["a", "b", "c"]})

    def test_inner_enriches(self):
        out = join(self.left(), self.right(), on="job")
        assert out["user"].tolist() == ["c", "a", "b", "c"]
        assert len(out) == 4

    def test_inner_drops_unmatched(self):
        left = Table({"job": [1, 99], "x": [1.0, 2.0]})
        out = join(left, self.right(), on="job", how="inner")
        assert out["job"].tolist() == [1]

    def test_left_requires_all_keys(self):
        left = Table({"job": [1, 99], "x": [1.0, 2.0]})
        with pytest.raises(FrameError, match="missing from right"):
            join(left, self.right(), on="job", how="left")

    def test_duplicate_right_keys_rejected(self):
        right = Table({"job": [1, 1], "user": ["a", "b"]})
        with pytest.raises(FrameError, match="unique"):
            join(self.left(), right, on="job")

    def test_name_clash_suffixed(self):
        right = Table({"job": [1, 2, 3], "power": [0.0, 0.0, 0.0]})
        out = join(self.left(), right, on="job")
        assert "power_right" in out

    def test_missing_key_column(self):
        with pytest.raises(ColumnMismatchError):
            join(self.left(), Table({"x": [1]}), on="job")

    def test_bad_how(self):
        with pytest.raises(FrameError):
            join(self.left(), self.right(), on="job", how="outer")

    def test_string_keys(self):
        left = Table({"u": ["b", "a"], "v": [1, 2]})
        right = Table({"u": ["a", "b"], "w": [10, 20]})
        out = join(left, right, on="u")
        assert out["w"].tolist() == [20, 10]


class TestIO:
    def table(self) -> Table:
        return Table(
            {
                "job": np.asarray([1, 2, 3], dtype=np.int64),
                "user": ["a", "b", "c"],
                "power": [1.5, 2.25, 3.125],
            }
        )

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(self.table(), path)
        back = read_csv(path)
        assert back == self.table()

    def test_csv_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert len(read_csv(path)) == 0

    def test_csv_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(FrameError, match="expected 2 fields"):
            read_csv(path)

    def test_npz_roundtrip_exact_dtypes(self, tmp_path):
        path = tmp_path / "t.npz"
        write_npz(self.table(), path)
        back = read_npz(path)
        assert back == self.table()
        assert back["job"].dtype == np.int64

    def test_npz_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, a=np.zeros(3))
        with pytest.raises(FrameError, match="__order__"):
            read_npz(path)

    def test_csv_float_precision(self, tmp_path):
        t = Table({"x": [0.1 + 0.2]})
        path = tmp_path / "prec.csv"
        write_csv(t, path)
        assert read_csv(path)["x"][0] == 0.1 + 0.2

