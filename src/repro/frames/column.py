"""Column coercion and dtype utilities for :mod:`repro.frames`.

A column is a 1-D :class:`numpy.ndarray`. Numeric data stays in its
native dtype; strings are stored as NumPy unicode arrays (``dtype.kind
== 'U'``) so that equality tests, ``np.unique`` and sorting all remain
vectorized.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ColumnMismatchError

__all__ = ["as_column", "is_numeric_dtype", "common_length"]


def as_column(values, name: str = "<column>") -> np.ndarray:
    """Coerce ``values`` into a 1-D ndarray suitable for a table column.

    Lists of str become unicode arrays; lists of bool become bool arrays;
    numeric sequences become their natural NumPy dtype. Object dtype is
    rejected because none of the downstream vectorized paths support it.
    """
    arr = np.asarray(values)
    if arr.ndim == 0:
        raise ColumnMismatchError(f"column {name!r} must be 1-D, got a scalar")
    if arr.ndim != 1:
        raise ColumnMismatchError(f"column {name!r} must be 1-D, got shape {arr.shape}")
    if arr.dtype == object:
        # Try to promote an all-string object array to unicode.
        if all(isinstance(v, str) for v in arr):
            arr = arr.astype(str)
        else:
            raise ColumnMismatchError(
                f"column {name!r} has object dtype; only numeric, bool and "
                "string columns are supported"
            )
    return arr


def is_numeric_dtype(arr: np.ndarray) -> bool:
    """True for int/uint/float columns (bool excluded)."""
    return arr.dtype.kind in ("i", "u", "f")


def common_length(columns: dict[str, np.ndarray]) -> int:
    """Validate that all columns share one length and return it."""
    lengths = {name: len(col) for name, col in columns.items()}
    unique = set(lengths.values())
    if len(unique) > 1:
        raise ColumnMismatchError(f"columns have unequal lengths: {lengths}")
    return unique.pop() if unique else 0
