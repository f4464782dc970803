"""Miscellaneous vectorized table operations."""

from __future__ import annotations

import numpy as np

from repro.errors import FrameError
from repro.frames.table import Table

__all__ = ["quantile_table", "cut"]


def quantile_table(table: Table, column: str, qs=(0.0, 0.25, 0.5, 0.75, 1.0)) -> Table:
    """Selected quantiles of one numeric column as a two-column table."""
    data = table[column]
    if data.dtype.kind not in "iuf":
        raise FrameError(f"quantile_table needs a numeric column, got {data.dtype}")
    qs = np.asarray(qs, dtype=float)
    if np.any((qs < 0) | (qs > 1)):
        raise FrameError("quantiles must lie in [0, 1]")
    return Table({"q": qs, column: np.quantile(data, qs)})


def cut(values, edges) -> np.ndarray:
    """Bin ``values`` by ``edges`` (ascending); returns bin index per value.

    Values below ``edges[0]`` get bin 0; values at or above ``edges[-1]``
    get bin ``len(edges)``. Mirrors ``np.searchsorted(edges, v, 'right')``.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or len(edges) == 0:
        raise FrameError("edges must be a non-empty 1-D sequence")
    if np.any(np.diff(edges) <= 0):
        raise FrameError("edges must be strictly increasing")
    return np.searchsorted(edges, np.asarray(values, dtype=float), side="right")
