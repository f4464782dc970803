"""RAPL measurement model.

The paper's monitoring samples Intel RAPL counters once per minute for
the PKG (CPU socket) and DRAM domains; the recorded values are
*averages over the sampling interval*, not instantaneous draws. This
module reproduces exactly those semantics:

* a continuous "true" power signal at 1 Hz resolution is averaged into
  one sample per minute,
* the averaged node power is split into PKG and DRAM domains using the
  system's DRAM power fraction, and
* a small multiplicative measurement noise models counter quantization
  and read jitter (RAPL energy counters are accurate to a few percent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.specs import SystemSpec
from repro.errors import TelemetryError
from repro.units import MINUTE

__all__ = ["RaplModel", "average_to_minutes"]


def average_to_minutes(signal: np.ndarray, seconds_per_step: float = 1.0) -> np.ndarray:
    """Average a fine-grained power signal into per-minute samples.

    ``signal`` may be 1-D (one node) or 2-D ``(nodes, time)``. A trailing
    partial minute is averaged over the steps it actually contains —
    matching how a RAPL energy-counter difference over a short final
    interval behaves.
    """
    sig = np.asarray(signal, dtype=float)
    squeeze = sig.ndim == 1
    if squeeze:
        sig = sig[None, :]
    if sig.ndim != 2:
        raise TelemetryError(f"signal must be 1-D or 2-D, got shape {sig.shape}")
    steps_per_minute = int(round(MINUTE / seconds_per_step))
    if steps_per_minute < 1:
        raise TelemetryError("seconds_per_step must be <= 60")
    if steps_per_minute == 1:
        # One step per minute: the mean of each single-sample window is
        # the sample itself (x / 1.0 is exact), so skip the reshape and
        # reduction. Copy to keep the fresh-output contract.
        out = sig.copy()
        return out[0] if squeeze else out
    n_nodes, n_steps = sig.shape
    n_minutes = int(np.ceil(n_steps / steps_per_minute))
    out = np.empty((n_nodes, n_minutes), dtype=float)
    full = n_steps // steps_per_minute
    if full:
        out[:, :full] = sig[:, : full * steps_per_minute].reshape(
            n_nodes, full, steps_per_minute
        ).mean(axis=2)
    if n_minutes > full:
        out[:, full] = sig[:, full * steps_per_minute :].mean(axis=1)
    return out[0] if squeeze else out


@dataclass(frozen=True)
class RaplModel:
    """Per-minute averaged PKG/DRAM measurement of node power.

    Parameters
    ----------
    spec:
        System whose DRAM power split applies.
    noise_sigma:
        Relative std of multiplicative measurement noise (default 1%).
    """

    spec: SystemSpec
    noise_sigma: float = 0.01

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise TelemetryError("noise_sigma must be >= 0")

    def measure(
        self,
        true_power: np.ndarray,
        rng: np.random.Generator,
        seconds_per_step: float = 60.0,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measured (pkg, dram) per-minute matrices from a true-power signal.

        ``true_power`` has shape ``(nodes, steps)`` at ``seconds_per_step``
        resolution. Output matrices have shape ``(nodes, minutes)``.
        """
        avg = average_to_minutes(true_power, seconds_per_step)
        if self.noise_sigma > 0:
            avg = avg * rng.normal(1.0, self.noise_sigma, size=avg.shape)
        avg = np.clip(avg, 0.0, None)
        dram = avg * self.spec.dram_power_fraction
        pkg = avg - dram
        return pkg, dram

    def measure_total(
        self,
        true_power: np.ndarray,
        rng: np.random.Generator,
        seconds_per_step: float = 60.0,
    ) -> np.ndarray:
        """PKG+DRAM combined per-minute measurement (the analyses' input)."""
        pkg, dram = self.measure(true_power, rng, seconds_per_step)
        return pkg + dram
