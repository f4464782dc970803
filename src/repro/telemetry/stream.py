"""Telemetry sampling of a scheduled-job stream, one chunk at a time.

:class:`TelemetryStream` holds the package's one sampling loop.
:func:`repro.telemetry.dataset.sample_telemetry` is one
:meth:`~TelemetryStream.sample_chunk` call over the whole schedule; the
streaming pipeline calls it once per chunk. The generator streams
(aggregates, traces and, on GPU systems, boards) are created once and
*continued* across chunks, and the global trace-budget counter is
carried over — so concatenating the per-chunk samples reproduces the
one-call sample bit for bit. (``standard_normal`` generates
element-wise from the PCG64 stream, so one draw of ``a + b`` normals
equals a draw of ``a`` followed by a draw of ``b``.)

The stream's :meth:`state`/:meth:`restore_state` round-trips the raw
``bit_generator.state`` dicts, which is what lets an interrupted
streaming run resume from its last spilled chunk without replaying the
earlier ones (see :mod:`repro.pipeline.stream`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.cluster.system import Cluster
from repro.rng import RngFactory
from repro.scheduler.job import ScheduledJob
from repro.telemetry.dataset import TelemetrySample
from repro.telemetry.sampler import GpuSampler, PowerSampler
from repro.telemetry.trace import JobPowerTrace
from repro.units import MINUTE
from repro.workload.applications import KEY_APPS

__all__ = ["TelemetryStream"]


class TelemetryStream:
    """Samples telemetry for a scheduled-job stream, one chunk at a time."""

    def __init__(
        self, cluster: Cluster, horizon_s: int, seed: int = 0, max_traces: int = 2000
    ) -> None:
        self.cluster = cluster
        self.horizon_s = int(horizon_s)
        self.max_traces = max_traces
        rngs = RngFactory(seed).child(f"telemetry.{cluster.name}")
        self._sampler = PowerSampler(cluster, rngs.get("aggregate"))
        self._trace_sampler = PowerSampler(cluster, rngs.get("traces"))
        # GPU boards are measured from their own child stream, created
        # only on GPU systems, so the CPU streams above replay the exact
        # draws of a CPU-only build.
        self._gpu_sampler = (
            GpuSampler(cluster, rngs.get("gpu")) if cluster.spec.has_gpus else None
        )
        self._window_lo = 0.30 * self.horizon_s
        self._window_hi = min(self.horizon_s, self._window_lo + self.horizon_s / 5.0)
        self._n_traces = 0
        self._n_gaps = 0

    @property
    def n_traces(self) -> int:
        """Instrumented traces sampled so far (the global budget counter)."""
        return self._n_traces

    @property
    def n_gaps(self) -> int:
        """Dropped-then-gap-filled samples so far, across all chunks."""
        return self._n_gaps

    def sample_chunk(self, scheduled: list[ScheduledJob]) -> TelemetrySample:
        """Sample the next chunk of the job stream (may be empty).

        RAPL aggregates for every job, and full node×minute matrices for
        key-app, multi-node jobs of at least 20 minutes that start in the
        trace window, until the trace budget is spent. An empty chunk
        consumes no generator draws.
        """
        sampler = self._sampler
        # Aggregates for every job come from the fused batch sweep: one
        # RNG draw and one clip pass over all node slots.
        pernode_power, power_sum = sampler.sample_aggregate_batch(scheduled)
        # Tolerance for dropped samples (the telemetry.drop fault point, or
        # a real monitoring outage): gap-fill each NaN aggregate with the
        # job's deterministic noise-free level and count it, so the gap
        # count travels through the stage meta into the run manifest.
        gap_idx = np.nonzero(np.isnan(pernode_power))[0]
        for i in gap_idx:
            pernode_power[i], power_sum[i] = sampler.nominal_aggregate(scheduled[i])
        m = len(scheduled)
        runtimes = np.fromiter(
            (job.spec.runtime_s for job in scheduled), dtype=float, count=m
        )
        energy = power_sum * runtimes
        instrumented = np.zeros(m, dtype=bool)
        is_debug = np.fromiter(
            (job.spec.is_debug for job in scheduled), dtype=bool, count=m
        )

        traces: dict[int, JobPowerTrace] = {}
        trace_allocations: dict[int, np.ndarray] = {}
        key_apps = set(KEY_APPS)
        for i, job in enumerate(scheduled):
            spec = job.spec
            if (
                self._n_traces < self.max_traces
                and spec.app in key_apps
                and spec.nodes >= 2
                and spec.runtime_s >= 20 * MINUTE
                and self._window_lo <= job.start_s < self._window_hi
            ):
                matrix = self._trace_sampler.sample_matrix(job)
                traces[spec.job_id] = JobPowerTrace(
                    job_id=spec.job_id,
                    user_id=spec.user_id,
                    app=spec.app,
                    system=spec.system,
                    matrix=matrix,
                )
                trace_allocations[spec.job_id] = job.node_ids.copy()
                instrumented[i] = True
                self._n_traces += 1

        gpu_power = gpu_count = None
        if self._gpu_sampler is not None:
            gpu_power, gpu_count = self._gpu_sampler.sample_batch(scheduled)

        self._n_gaps += int(len(gap_idx))
        return TelemetrySample(
            pernode_power=pernode_power,
            power_sum=power_sum,
            energy=energy,
            instrumented=instrumented,
            is_debug=is_debug,
            traces=traces,
            trace_allocations=trace_allocations,
            n_gaps=int(len(gap_idx)),
            gpu_power=gpu_power,
            gpu_count=gpu_count,
        )

    # -- checkpointing ---------------------------------------------------

    def state(self) -> dict[str, Any]:
        """Picklable checkpoint: every generator stream plus the counters."""
        state = {
            "aggregate": self._sampler._rng.bit_generator.state,
            "traces": self._trace_sampler._rng.bit_generator.state,
            "n_traces": self._n_traces,
            "n_gaps": self._n_gaps,
        }
        if self._gpu_sampler is not None:
            state["gpu"] = self._gpu_sampler._rng.bit_generator.state
        return state

    def restore_state(self, state: dict[str, Any]) -> None:
        """Continue exactly where :meth:`state` was captured.

        Checkpoints written before the GPU substrate lack the ``"gpu"``
        key; those runs are CPU-only, where the stream doesn't exist.
        """
        self._sampler._rng.bit_generator.state = state["aggregate"]
        self._trace_sampler._rng.bit_generator.state = state["traces"]
        if self._gpu_sampler is not None and "gpu" in state:
            self._gpu_sampler._rng.bit_generator.state = state["gpu"]
        self._n_traces = state["n_traces"]
        self._n_gaps = state["n_gaps"]
