"""Time-unit constants used throughout the package.

All internal computation uses SI base units — watts, joules, seconds —
and converts at the edges, through these named constants rather than
bare 60s and 3600s.
"""

from __future__ import annotations

__all__ = ["MINUTE", "HOUR", "DAY"]

MINUTE: int = 60
HOUR: int = 3600
DAY: int = 86400

