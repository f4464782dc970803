"""Evaluation tracks: which column a model predicts, over which rows.

The paper's protocol predicts per-node CPU power for every job. The
heterogeneous systems (docs/SCENARIOS.md) add two more tracks:

* ``gpu_power`` — regress a GPU job's total board power
  (``gpu_power_w``) with the allocated board count as an extra numeric
  feature, over the jobs that actually hold boards;
* ``failures`` — regress the 0/1 ``failed`` flag, so predictions are
  failure probabilities, graded by Brier (squared-probability) error
  instead of percentage error.

A :class:`Track` bundles the target column, the feature spec, the row
filter, and the per-prediction error metric, so offline evaluation
(:mod:`repro.analysis.prediction`), the serving registry, and the CLI
agree on each track's definition by construction. The model factories
(:func:`default_models`, :func:`failure_models`) live here too, so a
process that trains a served model imports neither
:mod:`repro.analysis` nor scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ValidationError
from repro.frames import Table
from repro.ml.encoding import FeatureSpec
from repro.ml.flda import FLDARegressor
from repro.ml.knn import KNNRegressor
from repro.ml.metrics import absolute_percentage_error, brier_error
from repro.ml.pipeline import TARGET_COLUMN
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "Track",
    "POWER_TRACK",
    "GPU_POWER_TRACK",
    "FAILURE_TRACK",
    "known_tracks",
    "get_track",
    "default_models",
    "failure_models",
]


@dataclass(frozen=True)
class Track:
    """One prediction target plus everything needed to evaluate it."""

    name: str
    target_column: str
    numeric_features: tuple[str, ...]
    error_kind: str  # "ape" (percentage error) or "brier" (probability)
    filter_column: str | None = None  # keep rows where this column is > 0
    min_rows: int = 50

    def __post_init__(self) -> None:
        if self.error_kind not in ("ape", "brier"):
            raise ValidationError(f"unknown error kind {self.error_kind!r}")

    def feature_spec(self) -> FeatureSpec:
        """A fresh spec per call — never a shared default instance."""
        return FeatureSpec(numeric_columns=self.numeric_features)

    @property
    def required_columns(self) -> tuple[str, ...]:
        cols = [self.target_column, *self.numeric_features]
        if self.filter_column is not None:
            cols.append(self.filter_column)
        return tuple(dict.fromkeys(cols))

    @property
    def error_fn(self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        return {"ape": absolute_percentage_error, "brier": brier_error}[
            self.error_kind
        ]

    def select(self, jobs: Table) -> Table:
        """The track's evaluation rows, or raise if the table lacks them.

        A CPU-only dataset has no GPU or exit-state columns; asking it
        for those tracks is a scenario mismatch, reported as such.
        """
        missing = [c for c in self.required_columns if c not in jobs]
        if missing:
            raise ValidationError(
                f"track {self.name!r} needs columns {missing}; this dataset's "
                "system does not model them (see docs/SCENARIOS.md)"
            )
        if self.filter_column is None:
            return jobs
        return jobs.take(np.nonzero(jobs[self.filter_column] > 0)[0])


POWER_TRACK = Track(
    name="power",
    target_column=TARGET_COLUMN,
    numeric_features=("nodes", "req_walltime_s"),
    error_kind="ape",
)

GPU_POWER_TRACK = Track(
    name="gpu_power",
    target_column="gpu_power_w",
    numeric_features=("nodes", "req_walltime_s", "gpus"),
    error_kind="ape",
    filter_column="gpus",
)

FAILURE_TRACK = Track(
    name="failures",
    target_column="failed",
    numeric_features=("nodes", "req_walltime_s"),
    error_kind="brier",
)

_TRACKS = {t.name: t for t in (POWER_TRACK, GPU_POWER_TRACK, FAILURE_TRACK)}


def known_tracks() -> list[str]:
    """Registered track names, sorted."""
    return sorted(_TRACKS)


def get_track(name: str) -> Track:
    """Look up a track by name (case-insensitive)."""
    try:
        return _TRACKS[name.lower()]
    except KeyError:
        raise ValidationError(
            f"unknown track {name!r}; known: {known_tracks()}"
        ) from None


def default_models() -> dict[str, Callable[[], object]]:
    """The paper's three models (Fig 14), best-performing first.

    * **BDT** — CART with the user as a native categorical feature;
      shallow leaves resolve down to job classes.
    * **KNN** — k=5 with every feature treated numerically (user id
      included), so nearby (nodes, walltime) jobs of *other* users bleed
      in — exactly the failure mode the paper diagnoses for KNN.
    * **FLDA** — 10 power classes, linear boundaries.
    """
    return {
        "BDT": lambda: DecisionTreeRegressor(min_samples_leaf=3),
        "KNN": lambda: KNNRegressor(k=5, use_categorical=False, weighting="uniform"),
        "FLDA": lambda: FLDARegressor(n_bins=10),
    }


def failure_models() -> dict[str, Callable[[], object]]:
    """Probability models for the failure track.

    The same regressors, pointed at a 0/1 target: BDT leaf means and
    KNN neighbour means are empirical failure rates. FLDA is dropped —
    quantile-binning a two-valued target degenerates.
    """
    return {
        "BDT": lambda: DecisionTreeRegressor(min_samples_leaf=5),
        "KNN": lambda: KNNRegressor(k=15, use_categorical=False, weighting="uniform"),
    }
