"""Stable top-level facade: one ScenarioSpec in, one result out.

Two entry points, each accepting either the canonical
:class:`~repro.spec.ScenarioSpec` or the legacy keyword style
(normalized by the :func:`~repro.spec.as_scenario` shim):

* :func:`generate_dataset` — build one scenario's
  :class:`~repro.telemetry.JobDataset`;
* :func:`evaluate` — the paper's offline prediction protocol
  (Figs 14–15) on that dataset.

The third top-level entry point, :func:`repro.create_server`, is
:func:`repro.serve.create_server` itself and takes a ``ScenarioSpec``
(docs/SERVICE.md).

All heavy imports happen inside the functions, so the facade costs
nothing until called (the PEP 562 surface in :mod:`repro` stays light
and ``pipeline status`` stays at ~0.06 s).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping

from repro.spec import as_scenario

__all__ = ["generate_dataset", "evaluate"]

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


# Legacy keyword arguments that describe the scenario itself (everything
# else passes through to the underlying builder).
_SCENARIO_KEYS = frozenset(
    ("system", "seed", "num_nodes", "num_users", "horizon_days", "horizon_s", "max_traces")
)


def _split_kwargs(kwargs: dict[str, Any]) -> tuple[dict[str, Any], dict[str, Any]]:
    scenario_kwargs = {k: v for k, v in kwargs.items() if k in _SCENARIO_KEYS}
    passthrough = {k: v for k, v in kwargs.items() if k not in _SCENARIO_KEYS}
    return scenario_kwargs, passthrough
