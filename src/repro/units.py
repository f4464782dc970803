"""Unit helpers used throughout the package.

All internal computation uses SI base units — watts, joules, seconds —
and converts at the edges. Functions here are trivially small on purpose:
they give dimension-bearing names to otherwise bare arithmetic, which is
where trace-analysis bugs usually hide.
"""

from __future__ import annotations

__all__ = [
    "MINUTE",
    "HOUR",
    "DAY",
    "seconds",
    "minutes",
    "hours",
]

MINUTE: int = 60
HOUR: int = 3600
DAY: int = 86400


def seconds(x: float) -> float:
    """Identity; marks a literal as seconds at the call site."""
    return float(x)


def minutes(x: float) -> float:
    """Convert minutes to seconds."""
    return float(x) * MINUTE


def hours(x: float) -> float:
    """Convert hours to seconds."""
    return float(x) * HOUR

