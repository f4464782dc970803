"""Peak-allocation measurement for the memory-bound tests."""

from __future__ import annotations

import tracemalloc


def traced(fn, *args):
    """``fn(*args)``, and the bytes it allocated at its peak above what it
    started with. numpy reports its buffers to tracemalloc (which the
    caller has started), so the figure is deterministic."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, tracemalloc.get_traced_memory()[1] - base
