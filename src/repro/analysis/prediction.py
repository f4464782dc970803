"""Section 5 — pre-execution power prediction (RQ9; Figs 14–15).

Wires the paper's three models and evaluation protocol onto a dataset's
job table (``dataset.jobs``, or :func:`repro.pipeline.build_jobs`, which
leaves the samples on disk). Features: user id, number of nodes,
requested walltime — everything available *before* the job starts
(actual runtime is deliberately excluded, as in the paper).

The heterogeneous systems add two more tracks on the same protocol
(docs/SCENARIOS.md): :func:`run_gpu_prediction` regresses GPU-job board
power, :func:`run_failure_classification` regresses failure probability
(graded by Brier error, not percentage error).
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import AnalysisError
from repro.frames import Table
from repro.ml import (
    FAILURE_TRACK,
    GPU_POWER_TRACK,
    PredictionResult,
    Track,
    default_models,
    evaluate_models,
    failure_models,
)

__all__ = [
    "run_prediction",
    "run_track",
    "run_gpu_prediction",
    "run_failure_classification",
]


def run_prediction(
    jobs: Table,
    models: Mapping[str, Callable[[], object]] | None = None,
    n_repeats: int = 10,
    seed: int = 0,
) -> dict[str, PredictionResult]:
    """Run the full Fig 14/15 evaluation on one dataset's job table."""
    if len(jobs) < 50:
        raise AnalysisError(
            f"prediction evaluation needs a reasonable job count, got {len(jobs)}"
        )
    return evaluate_models(
        jobs,
        models or default_models(),
        n_repeats=n_repeats,
        seed=seed,
    )


def run_track(
    jobs: Table,
    track: Track,
    models: Mapping[str, Callable[[], object]] | None = None,
    n_repeats: int = 10,
    seed: int = 0,
) -> dict[str, PredictionResult]:
    """The paper's repeated-split protocol on one :class:`~repro.ml.Track`.

    Selects the track's rows from a dataset's job table, then runs
    :func:`repro.ml.evaluate_models` with the track's target, feature
    spec, and per-prediction error metric.
    """
    rows = track.select(jobs)
    if len(rows) < track.min_rows:
        raise AnalysisError(
            f"track {track.name!r} needs >= {track.min_rows} eligible jobs, "
            f"got {len(rows)} (of {len(jobs)})"
        )
    return evaluate_models(
        rows,
        models or default_models(),
        n_repeats=n_repeats,
        seed=seed,
        feature_spec=track.feature_spec(),
        target_column=track.target_column,
        error_fn=track.error_fn,
    )


def run_gpu_prediction(
    jobs: Table,
    models: Mapping[str, Callable[[], object]] | None = None,
    n_repeats: int = 10,
    seed: int = 0,
) -> dict[str, PredictionResult]:
    """GPU-job board-power regression over the jobs holding boards."""
    return run_track(
        jobs, GPU_POWER_TRACK, models=models, n_repeats=n_repeats, seed=seed
    )


def run_failure_classification(
    jobs: Table,
    models: Mapping[str, Callable[[], object]] | None = None,
    n_repeats: int = 10,
    seed: int = 0,
) -> dict[str, PredictionResult]:
    """Failure-probability classification; errors are Brier scores."""
    return run_track(
        jobs, FAILURE_TRACK, models=models or failure_models(),
        n_repeats=n_repeats, seed=seed,
    )
