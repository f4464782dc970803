"""Stable top-level facade: one ScenarioSpec in, one result out.

The three entry points most users need, each accepting either the
canonical :class:`~repro.spec.ScenarioSpec` or the legacy keyword style
(normalized by the :func:`~repro.spec.as_scenario` shim):

* :func:`generate_dataset` — build one scenario's
  :class:`~repro.telemetry.JobDataset`;
* :func:`evaluate` — the paper's offline prediction protocol
  (Figs 14–15) on that dataset;
* :func:`create_server` — a ready micro-batched HTTP prediction server
  for the scenario (docs/SERVICE.md).

All heavy imports happen inside the functions, so the facade costs
nothing until called (the PEP 562 surface in :mod:`repro` stays light
and ``pipeline status`` stays at ~0.06 s).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.spec import as_scenario

__all__ = ["generate_dataset", "evaluate", "create_server"]

_SpecLike = "ScenarioSpec | Mapping[str, Any] | str | None"


def generate_dataset(
    scenario: _SpecLike = None,
    *,
    cached: bool = False,
    cache_dir=None,
    **kwargs: Any,
):
    """Build one scenario's :class:`~repro.telemetry.JobDataset`.

    ``generate_dataset(spec)`` and the legacy
    ``generate_dataset("emmy", seed=7, horizon_s=86400, ...)`` style both
    work; pipeline-only knobs (``backfill_depth``, ``params_overrides``,
    ``variability_sigma``) pass straight through. ``cached=True`` routes
    the build through the pipeline's on-disk artifact cache
    (:func:`repro.pipeline.build_dataset`) — byte-identical output, warm
    reruns load in milliseconds.
    """
    scenario_kwargs, passthrough = _split_kwargs(kwargs)
    spec = as_scenario(scenario, **scenario_kwargs)
    if cached:
        from repro.pipeline import build_dataset

        return build_dataset(
            **spec.dataset_kwargs(), cache_dir=cache_dir, **passthrough
        )
    from repro.telemetry import generate_dataset as _generate

    return _generate(**spec.dataset_kwargs(), **passthrough)


def evaluate(
    scenario: _SpecLike = None,
    *,
    track: str = "power",
    models: Mapping[str, Callable[[], object]] | None = None,
    n_repeats: int = 10,
    cache_dir=None,
    **kwargs: Any,
):
    """Run the paper's prediction protocol for one scenario.

    Builds the scenario's dataset through the artifact cache and reads
    its job table alone (:func:`repro.pipeline.build_jobs`; the samples
    stay on disk), then runs the requested evaluation track
    (``repro.ml.known_tracks()``):

    * ``"power"`` (default) — :func:`repro.analysis.run_prediction`,
      the paper's per-node CPU power protocol (BDT/KNN/FLDA);
    * ``"gpu_power"`` — GPU-job board-power regression (GPU systems);
    * ``"failures"`` — failure-probability classification, graded by
      Brier error (ML/mixed systems).

    Returns ``{model name: PredictionResult}``.
    """
    scenario_kwargs, passthrough = _split_kwargs(kwargs)
    spec = as_scenario(scenario, **scenario_kwargs)
    from repro.analysis import (
        run_failure_classification,
        run_gpu_prediction,
        run_prediction,
    )
    from repro.ml import get_track

    runner = {
        "power": run_prediction,
        "gpu_power": run_gpu_prediction,
        "failures": run_failure_classification,
    }[get_track(track).name]
    from repro.pipeline import build_jobs

    jobs = build_jobs(**spec.dataset_kwargs(), cache_dir=cache_dir, **passthrough)
    return runner(jobs, models=models, n_repeats=n_repeats, seed=spec.seed)


def create_server(
    scenario: _SpecLike = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    cache_dir=None,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    warm: tuple[str, ...] = (),
    lifecycle: bool = False,
    lifecycle_dir=None,
    **kwargs: Any,
):
    """A ready micro-batched prediction server for one scenario.

    Thin re-export of :func:`repro.serve.create_server`; returns a
    :class:`~repro.serve.PredictionServer` (``serve_forever`` /
    ``serve_in_background`` / ``close``). See docs/SERVICE.md.
    ``lifecycle=True`` attaches the drift-aware model lifecycle —
    ``/v1/feedback``, shadow evaluation, and journaled
    promote/rollback (docs/LIFECYCLE.md).
    """
    scenario_kwargs, passthrough = _split_kwargs(kwargs)
    if passthrough:
        raise TypeError(
            f"create_server got unexpected keyword arguments {sorted(passthrough)}"
        )
    from repro.serve import create_server as _create

    return _create(
        as_scenario(scenario, **scenario_kwargs),
        host=host,
        port=port,
        cache_dir=cache_dir,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        warm=warm,
        lifecycle=lifecycle,
        lifecycle_dir=lifecycle_dir,
    )


# Legacy keyword arguments that describe the scenario itself (everything
# else passes through to the underlying builder).
_SCENARIO_KEYS = frozenset(
    ("system", "seed", "num_nodes", "num_users", "horizon_days", "horizon_s", "max_traces")
)


def _split_kwargs(kwargs: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    scenario_kwargs = {k: v for k, v in kwargs.items() if k in _SCENARIO_KEYS}
    passthrough = {k: v for k, v in kwargs.items() if k not in _SCENARIO_KEYS}
    return scenario_kwargs, passthrough
