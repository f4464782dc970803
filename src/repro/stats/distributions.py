"""Empirical distribution machinery (ECDFs, quantiles).

Every CDF figure in the paper (Figs 7, 9, 12, 14, 15) is an empirical
CDF of a per-job or per-user metric; :class:`ECDF` is the shared
representation the analysis layer returns for those figures.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ECDF", "fraction_below", "quantile"]


class ECDF:
    """Right-continuous empirical CDF of a 1-D sample.

    ``ecdf(x)`` evaluates P[X <= x]; ``ecdf.quantile(q)`` inverts it.

    Examples
    --------
    >>> e = ECDF([1.0, 2.0, 3.0, 4.0])
    >>> float(e(2.0))
    0.5
    >>> float(e.quantile(0.5))
    2.0
    """

    def __init__(self, sample) -> None:
        x = np.asarray(sample, dtype=float).ravel()
        if x.size == 0:
            raise ValueError("ECDF requires a non-empty sample")
        if np.any(~np.isfinite(x)):
            raise ValueError("ECDF sample must be finite")
        self._sorted = np.sort(x)

    @property
    def sample_size(self) -> int:
        return int(self._sorted.size)

    @property
    def support(self) -> tuple[float, float]:
        return float(self._sorted[0]), float(self._sorted[-1])

    @property
    def values(self) -> np.ndarray:
        """The sorted sample (read-only view)."""
        v = self._sorted.view()
        v.flags.writeable = False
        return v

    def __call__(self, x):
        """P[X <= x] for scalar or array ``x``."""
        x = np.asarray(x, dtype=float)
        return np.searchsorted(self._sorted, x, side="right") / self._sorted.size

    def quantile(self, q):
        """Inverse CDF: smallest sample value v with ``self(v) >= q``."""
        q = np.asarray(q, dtype=float)
        if np.any((q < 0) | (q > 1)):
            raise ValueError("quantiles must lie in [0, 1]")
        idx = np.ceil(q * self._sorted.size).astype(int) - 1
        return self._sorted[np.clip(idx, 0, self._sorted.size - 1)]

    def mean(self) -> float:
        return float(np.mean(self._sorted))

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) pairs suitable for a step plot."""
        n = self._sorted.size
        return self._sorted.copy(), np.arange(1, n + 1) / n


def fraction_below(sample, threshold: float) -> float:
    """Fraction of sample values strictly below ``threshold``."""
    x = np.asarray(sample, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("fraction_below requires a non-empty sample")
    return float(np.count_nonzero(x < threshold) / x.size)


def quantile(sample, q) -> float:
    """Scalar quantile of a sample (linear interpolation, like np.quantile)."""
    return float(np.quantile(np.asarray(sample, dtype=float), q))
