"""Scratch locations for the paper-vs-measured benchmark fixtures.

The fixtures under ``benchmarks/`` need two writable
directories: an artifact cache for the (expensive) paper-scale datasets
and a results directory for the comparison text files. Neither belongs
in the repository working tree — a `make bench-smoke` must not dirty
`git status` or leave gigabytes of cache next to the sources — so both
default to a per-user directory under the system temp dir and are
overridable by environment variable:

``REPRO_BENCH_SCRATCH``
    Root for everything (default ``<tempdir>/repro-bench``).
``REPRO_BENCH_RESULTS``
    Results directory (default ``<scratch>/results``). Point this at
    ``benchmarks/results`` to refresh the committed comparison
    snapshots deliberately.

The scratch cache survives across sessions (temp dirs persist until
reboot / cleanup), so repeated bench runs still reuse the cached
datasets exactly as before — only the *location* moved out of the
repository.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

SCRATCH_ENV_VAR = "REPRO_BENCH_SCRATCH"
RESULTS_ENV_VAR = "REPRO_BENCH_RESULTS"

__all__ = [
    "SCRATCH_ENV_VAR",
    "RESULTS_ENV_VAR",
    "bench_scratch_root",
    "bench_cache_dir",
    "bench_results_dir",
]


def bench_scratch_root() -> Path:
    """The bench scratch root (``$REPRO_BENCH_SCRATCH`` or temp)."""
    env = os.environ.get(SCRATCH_ENV_VAR)
    if env:
        return Path(env)
    return Path(tempfile.gettempdir()) / "repro-bench"


def bench_cache_dir() -> Path:
    """The artifact-cache root bench datasets build through (created)."""
    path = bench_scratch_root() / "cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def bench_results_dir() -> Path:
    """Where bench comparison text files are written (created)."""
    env = os.environ.get(RESULTS_ENV_VAR)
    path = Path(env) if env else bench_scratch_root() / "results"
    path.mkdir(parents=True, exist_ok=True)
    return path
