"""The :class:`Table` column store.

A :class:`Table` is an immutable-by-convention ordered mapping from
column name to a 1-D NumPy array, all of equal length. Row-wise
operations return new tables sharing column buffers where possible
(views, not copies — see the memory notes in the HPC guides).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import ColumnMismatchError, FrameError
from repro.frames.column import as_column, common_length, is_numeric_dtype

__all__ = ["Table", "concat", "concat_columns"]


class Table:
    """An ordered collection of equal-length named columns.

    Parameters
    ----------
    columns:
        Mapping of name to 1-D array-like. Insertion order is preserved
        and defines the column order for I/O and ``repr``.

    Examples
    --------
    >>> t = Table({"x": [1, 2, 3], "y": [10.0, 20.0, 30.0]})
    >>> len(t)
    3
    >>> t.filter(t["x"] > 1).to_dict()["y"].tolist()
    [20.0, 30.0]
    """

    __slots__ = ("_columns", "_length")

    def __init__(self, columns: Mapping[str, object] | None = None) -> None:
        cols: dict[str, np.ndarray] = {}
        for name, values in (columns or {}).items():
            if not isinstance(name, str) or not name:
                raise ColumnMismatchError(f"column names must be non-empty str, got {name!r}")
            cols[name] = as_column(values, name)
        self._columns = cols
        self._length = common_length(cols)

    # -- basic protocol ---------------------------------------------------

    @property
    def column_names(self) -> list[str]:
        """Column names in insertion order."""
        return list(self._columns)

    @property
    def num_columns(self) -> int:
        return len(self._columns)

    def __len__(self) -> int:
        return self._length

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __getitem__(self, key):
        """``t["col"]`` → column array; ``t[mask_or_index]`` → row subset."""
        if isinstance(key, str):
            try:
                return self._columns[key]
            except KeyError:
                raise ColumnMismatchError(
                    f"no column {key!r}; available: {self.column_names}"
                ) from None
        return self.take(key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.column_names != other.column_names or len(self) != len(other):
            return False
        return all(np.array_equal(self._columns[c], other._columns[c]) for c in self)

    def __hash__(self):  # tables are mutable containers of arrays
        raise TypeError("Table is not hashable")

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{c.dtype}" for n, c in self._columns.items())
        return f"Table({len(self)} rows; {cols})"

    # -- construction helpers ---------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Mapping[str, object]]) -> "Table":
        """Build a table from an iterable of homogeneous row dicts."""
        rows = list(rows)
        if not rows:
            return cls({})
        names = list(rows[0])
        for i, row in enumerate(rows):
            if list(row) != names:
                raise ColumnMismatchError(
                    f"row {i} keys {list(row)} differ from row 0 keys {names}"
                )
        return cls({n: [row[n] for row in rows] for n in names})

    def copy(self) -> "Table":
        """Deep copy (column buffers are duplicated)."""
        return Table({n: c.copy() for n, c in self._columns.items()})

    # -- row-wise operations ------------------------------------------------

    def take(self, indexer) -> "Table":
        """Rows selected by boolean mask, slice, or integer index array."""
        if isinstance(indexer, np.ndarray) and indexer.dtype == bool:
            if len(indexer) != len(self):
                raise ColumnMismatchError(
                    f"boolean mask length {len(indexer)} != table length {len(self)}"
                )
        return Table({n: c[indexer] for n, c in self._columns.items()})

    def filter(self, mask) -> "Table":
        """Rows where ``mask`` is True."""
        mask = np.asarray(mask)
        if mask.dtype != bool:
            raise ColumnMismatchError(f"filter mask must be boolean, got {mask.dtype}")
        return self.take(mask)

    def head(self, n: int = 5) -> "Table":
        return self.take(slice(0, n))

    def sort_by(self, *names: str, descending: bool = False) -> "Table":
        """Stable sort by one or more columns (last name varies slowest)."""
        if not names:
            raise FrameError("sort_by requires at least one column name")
        keys = [self[name] for name in names]
        order = np.lexsort(keys[::-1]) if len(keys) > 1 else np.argsort(keys[0], kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    def row(self, i: int) -> dict[str, object]:
        """Row ``i`` as a plain dict of Python scalars."""
        return {n: c[i].item() if c[i].shape == () else c[i] for n, c in self._columns.items()}

    def iter_rows(self) -> Iterator[dict[str, object]]:
        for i in range(len(self)):
            yield self.row(i)

    # -- column-wise operations --------------------------------------------

    def select(self, names: Iterable[str]) -> "Table":
        """Subset of columns, in the order given."""
        names = list(names)
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise ColumnMismatchError(f"unknown columns {missing}; have {self.column_names}")
        return Table({n: self._columns[n] for n in names})

    def drop(self, *names: str) -> "Table":
        """All columns except ``names``."""
        return Table({n: c for n, c in self._columns.items() if n not in names})

    def with_column(self, name: str, values) -> "Table":
        """New table with ``name`` added or replaced."""
        col = as_column(values, name)
        if len(self._columns) and len(col) != len(self):
            raise ColumnMismatchError(
                f"column {name!r} has length {len(col)}, table has {len(self)} rows"
            )
        cols = dict(self._columns)
        cols[name] = col
        return Table(cols)

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """New table with columns renamed per ``mapping``."""
        missing = [n for n in mapping if n not in self._columns]
        if missing:
            raise ColumnMismatchError(f"cannot rename unknown columns {missing}")
        return Table({mapping.get(n, n): c for n, c in self._columns.items()})

    # -- reductions and summaries -------------------------------------------

    def to_dict(self) -> dict[str, np.ndarray]:
        """Shallow dict of column arrays (buffers shared)."""
        return dict(self._columns)

    def unique(self, name: str) -> np.ndarray:
        """Sorted unique values of one column."""
        return np.unique(self[name])

    def group_by(self, *names: str) -> "GroupBy":
        """Group rows by one or more key columns; see :class:`GroupBy`."""
        from repro.frames.groupby import GroupBy

        return GroupBy(self, list(names))

    def describe(self) -> "Table":
        """Per-numeric-column summary (count/mean/std/min/median/max)."""
        names, count, mean, std, lo, med, hi = [], [], [], [], [], [], []
        for n, c in self._columns.items():
            if not is_numeric_dtype(c) or len(c) == 0:
                continue
            names.append(n)
            count.append(len(c))
            mean.append(float(np.mean(c)))
            std.append(float(np.std(c)))
            lo.append(float(np.min(c)))
            med.append(float(np.median(c)))
            hi.append(float(np.max(c)))
        return Table(
            {
                "column": names,
                "count": count,
                "mean": mean,
                "std": std,
                "min": lo,
                "median": med,
                "max": hi,
            }
        )


def concat(tables: Sequence[Table]) -> Table:
    """Stack tables with identical column names vertically."""
    tables = [t for t in tables if len(t.column_names)]
    if not tables:
        return Table({})
    names = tables[0].column_names
    for i, t in enumerate(tables):
        if t.column_names != names:
            raise ColumnMismatchError(
                f"table {i} columns {t.column_names} differ from table 0 columns {names}"
            )
    return Table({n: np.concatenate([t[n] for t in tables]) for n in names})


def concat_columns(
    tables: Sequence[Iterable[tuple[str, np.ndarray]]],
) -> Iterator[tuple[str, np.ndarray]]:
    """:func:`concat` one column at a time, over streams of columns.

    Each of ``tables`` yields ``(name, column)`` pairs, as
    :func:`~repro.frames.io.iter_npz` does. Every step takes the next
    column of each stream and yields their concatenation, keeping no
    reference to it or its parts, so a caller that drops each merged
    column before asking for the next holds at most one column's parts
    plus the merged column. Raises :class:`ColumnMismatchError` when the
    streams' column names differ, like :func:`concat`.
    """
    for parts in zip_longest(*tables):
        names = [part[0] if part is not None else None for part in parts]
        if None in names or len(set(names)) != 1:
            raise ColumnMismatchError(f"streams disagree on the next column: {names}")
        columns = [column for _, column in parts]
        del parts
        yield names[0], _concatenated(columns)


def _concatenated(columns: list[np.ndarray]) -> np.ndarray:
    """``np.concatenate(columns)``, without a copy for a single part, and
    emptying ``columns`` so that the caller's list no longer holds them."""
    merged = columns[0] if len(columns) == 1 else np.concatenate(columns)
    columns.clear()
    return merged
