"""A small NumPy-backed columnar table substrate.

pandas is not a dependency of this package; every trace and analysis
in :mod:`repro` flows through :class:`~repro.frames.table.Table`, a typed
column store with filtering, group-by aggregation, joins and CSV/NPZ I/O.
The API is deliberately narrow — exactly what the paper's analyses need —
and every operation is vectorized.
"""

from repro.frames.column import as_column
from repro.frames.groupby import GroupBy
from repro.frames.io import iter_npz, open_npz, read_csv, read_npz, write_csv, write_npz
from repro.frames.join import join
from repro.frames.table import Table, concat, concat_columns

__all__ = [
    "Table",
    "GroupBy",
    "concat",
    "concat_columns",
    "join",
    "as_column",
    "read_csv",
    "write_csv",
    "read_npz",
    "open_npz",
    "iter_npz",
    "write_npz",
]
