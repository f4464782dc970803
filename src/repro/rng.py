"""Deterministic random-number stream management.

Every stochastic subsystem (workload generation, node variability,
sampling noise, ML splits) draws from its own named child stream spawned
from a single root seed, so that

* the full pipeline is reproducible from one integer seed, and
* changing how many numbers one subsystem consumes does not perturb the
  streams of the others.

This mirrors the independent-stream discipline used in parallel Monte
Carlo codes (one ``SeedSequence`` child per rank).
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngFactory"]


class RngFactory:
    """Spawns independent, named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed. Two factories built from the same seed hand out
        identical streams for identical names, regardless of the order in
        which the names are requested.

    Examples
    --------
    >>> f = RngFactory(1234)
    >>> a = f.get("workload")
    >>> b = f.get("variability")
    >>> a is not b
    True
    >>> f2 = RngFactory(1234)
    >>> float(f2.get("workload").random()) == float(RngFactory(1234).get("workload").random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)

    @property
    def seed(self) -> int:
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the stream for ``name`` (stable across call order)."""
        if not name:
            raise ValueError("stream name must be non-empty")
        # Hash the name into the entropy pool so equal names map to equal
        # streams independent of request order.
        token = [ord(c) for c in name]
        seq = np.random.SeedSequence(entropy=self._seed, spawn_key=tuple(token))
        return np.random.default_rng(seq)

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, e.g. one per simulated system."""
        rng = self.get(name)
        return RngFactory(int(rng.integers(0, 2**31 - 1)))

