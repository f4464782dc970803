"""Temporal phase model: the multiplicative power profile of a job.

Calibration targets (Sec. 4, Figs 6–7):

* average σ_t/µ of a job's power over its runtime ≈ 11%,
* mean peak overshoot over the job mean ≈ 10–12%, with ~80% of jobs
  below ~12%,
* ≥70% of jobs spend ≈0% of runtime more than 10% above their mean.

Those three only coexist if temporal variance is dominated by *dips*,
not bursts: an HPC job holds a compute plateau and periodically drops to
low power during I/O or communication phases. Dips raise σ_t while
leaving the plateau barely above the mean. The population mix is
therefore: flat jobs (AR(1) wander only), *dip* jobs (plateau with
periodic low-power phases — the common case for phased codes), a small
share of genuinely bursty jobs (the Fig 7b tail), and multiphase
setup/production/teardown ramps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError

__all__ = ["TemporalProfile", "make_profile", "PROFILE_KINDS"]

PROFILE_KINDS = ("flat", "dip", "burst", "multiphase", "epoch")


@dataclass(frozen=True)
class TemporalProfile:
    """Parameters of one job's temporal behavior.

    ``kind`` selects the generator; ``wander_sigma`` is the relative std
    of the slow AR(1) component present in every kind; ``amp`` and
    ``duty`` shape the periodic phase (dip depth or burst height and the
    fraction of each period spent in it).
    """

    kind: str
    wander_sigma: float = 0.025
    amp: float = 0.0
    duty: float = 0.0
    period_minutes: int = 30

    def __post_init__(self) -> None:
        if self.kind not in PROFILE_KINDS:
            raise WorkloadError(f"unknown profile kind {self.kind!r}; known: {PROFILE_KINDS}")
        if self.wander_sigma < 0 or self.wander_sigma > 0.5:
            raise WorkloadError("wander_sigma must be in [0, 0.5]")
        if not 0 <= self.amp <= 0.9:
            raise WorkloadError("amp must be in [0, 0.9]")
        if not 0 <= self.duty < 1:
            raise WorkloadError("duty must be in [0, 1)")
        if self.period_minutes < 2:
            raise WorkloadError("period_minutes must be >= 2")

    def generate(self, minutes: int, rng: np.random.Generator) -> np.ndarray:
        """Multiplicative profile of length ``minutes`` with mean exactly 1."""
        if minutes <= 0:
            raise WorkloadError("profile length must be positive")
        base = _ar1(minutes, self.wander_sigma, rng)
        if self.kind == "flat" or minutes < 4:
            profile = base
        elif self.kind == "dip":
            profile = base * _square_wave(
                minutes, 1.0 - self.amp, self.duty, self.period_minutes, rng
            )
        elif self.kind == "burst":
            profile = base * _square_wave(
                minutes, 1.0 + self.amp, self.duty, self.period_minutes, rng
            )
        elif self.kind == "epoch":
            profile = base * _epochs(
                minutes, self.amp, self.duty, self.period_minutes, rng
            )
        else:  # multiphase: low setup, high production, low teardown
            profile = base * _ramps(minutes, self.amp, rng)
        # Renormalize so the job mean equals the nominal class power.
        return profile / profile.mean()


def _ar1(n: int, sigma: float, rng: np.random.Generator, rho: float = 0.96) -> np.ndarray:
    """Stationary AR(1) around 1.0 with marginal std ``sigma``."""
    if sigma == 0:
        return np.ones(n)
    innovations = rng.normal(0.0, sigma * np.sqrt(1 - rho * rho), size=n)
    innovations[0] = rng.normal(0.0, sigma)
    # x[i] = rho * x[i-1] + e[i], one rounding per operation: bit for bit
    # what scipy.signal.lfilter([1], [1, -rho], e) computes, without the
    # scipy.signal import (over 1 s and 50 MiB of peak RSS) that every
    # build process would otherwise pay.
    out = np.empty(n)
    y = 0.0
    for i, e in enumerate(innovations.tolist()):
        y = rho * y + e
        out[i] = y
    return np.clip(1.0 + out, 0.3, 1.7)


def _square_wave(
    n: int, phase_level: float, duty: float, period: int, rng: np.random.Generator
) -> np.ndarray:
    """Level 1 except ``duty`` of each period at ``phase_level``."""
    phase = rng.integers(0, period)
    t = (np.arange(n) + phase) % period
    in_phase = t < max(1, int(round(duty * period)))
    return np.where(in_phase, phase_level, 1.0)


def _ramps(n: int, amp: float, rng: np.random.Generator) -> np.ndarray:
    """Setup/production/teardown: low shoulders around a high middle."""
    setup = max(1, int(n * rng.uniform(0.03, 0.12)))
    teardown = max(1, int(n * rng.uniform(0.02, 0.08)))
    out = np.full(n, 1.0 + amp)
    out[:setup] = 1.0 - amp
    if teardown < n:
        out[n - teardown :] = 1.0 - 0.5 * amp
    return out


def _epochs(
    n: int, amp: float, duty: float, period: int, rng: np.random.Generator
) -> np.ndarray:
    """ML-training epochs: compute plateaus with periodic checkpoint dips.

    One period is one epoch: a sustained compute plateau, a short
    data-loading ramp at the epoch boundary, and a deep checkpoint dip
    (``duty`` of the period at ``1 - amp``) when the state is flushed to
    the parallel filesystem. The run opens with a low-power staging
    segment — container pull, dataset cache warm-up, checkpoint
    *restore* after a restart — matching Chu et al.'s observation that
    ML jobs spend their early minutes far below steady-state power.
    """
    t = np.arange(n) % period
    dip_len = max(1, int(round(duty * period)))
    ramp_len = max(1, int(round(0.10 * period)))
    out = np.ones(n)
    # Checkpoint flush at the end of each epoch.
    out[t >= period - dip_len] = 1.0 - amp
    # Data-loading ramp opening each epoch: climbs back to the plateau.
    ramp = t < ramp_len
    out[ramp] = 0.85 + 0.15 * (t[ramp] + 1) / ramp_len
    # Initial staging / checkpoint-restore segment at job start.
    staging = max(1, int(n * rng.uniform(0.02, 0.08)))
    out[:staging] = 1.0 - 0.8 * amp
    return out


def make_profile(
    burstiness: float, rng: np.random.Generator, mode: str = "mixed", ml: bool = False
) -> TemporalProfile:
    """Draw a profile for a job class given its application burstiness.

    ``burstiness`` shifts the mix away from flat toward dip/burst
    behavior. The resulting population reproduces the paper's "limited
    temporal variance" finding: dips carry most of the σ_t, genuine
    above-mean bursts stay rare.

    ``ml=True`` draws an epoch-shaped training profile instead (compute
    plateaus, checkpoint dips, staging ramp — docs/SCENARIOS.md);
    burstiness then scales the checkpoint depth. The flat ablation mode
    still wins, so the temporal-ablation studies cover ML systems too.
    """
    if not 0 <= burstiness <= 1:
        raise WorkloadError("burstiness must be in [0, 1]")
    if mode not in ("mixed", "flat", "burst-only"):
        raise WorkloadError(f"unknown profile mode {mode!r}")
    if mode == "flat":
        return TemporalProfile(kind="flat", wander_sigma=rng.uniform(0.012, 0.035))
    if ml:
        # Epoch period tracks dataset size; checkpoint dips are deep
        # (GPUs idle at the board floor while the state is flushed).
        amp = rng.uniform(0.30, 0.45 + 0.25 * burstiness)
        return TemporalProfile(
            kind="epoch",
            wander_sigma=rng.uniform(0.012, 0.030),
            amp=float(np.clip(amp, 0.0, 0.9)),
            duty=rng.uniform(0.04, 0.12),
            period_minutes=int(rng.integers(15, 75)),
        )
    if mode == "burst-only":
        return TemporalProfile(
            kind="burst",
            wander_sigma=rng.uniform(0.010, 0.030),
            amp=rng.uniform(0.15, 0.50),
            duty=rng.uniform(0.10, 0.35),
            period_minutes=int(rng.integers(10, 90)),
        )
    p_dip = 0.40 + 0.45 * burstiness
    p_burst = 0.05 + 0.12 * burstiness
    p_multi = 0.03 + 0.06 * burstiness
    u = rng.random()
    if u < p_dip:
        # Keep amp*duty below ~0.085 so the compute plateau stays within
        # 10% of the job mean — dips raise sigma_t without creating
        # "above 10%" runtime (the Fig 7b constraint).
        amp = rng.uniform(0.35, 0.75)
        duty = rng.uniform(0.04, min(0.30, 0.085 / amp))
        return TemporalProfile(
            kind="dip",
            wander_sigma=rng.uniform(0.010, 0.025),
            amp=amp,
            duty=duty,
            period_minutes=int(rng.integers(10, 120)),
        )
    if u < p_dip + p_burst:
        return TemporalProfile(
            kind="burst",
            wander_sigma=rng.uniform(0.010, 0.030),
            amp=rng.uniform(0.15, 0.50),
            duty=rng.uniform(0.10, 0.35),
            period_minutes=int(rng.integers(10, 90)),
        )
    if u < p_dip + p_burst + p_multi:
        return TemporalProfile(
            kind="multiphase",
            wander_sigma=rng.uniform(0.010, 0.030),
            amp=rng.uniform(0.08, 0.25),
        )
    return TemporalProfile(kind="flat", wander_sigma=rng.uniform(0.012, 0.035))
