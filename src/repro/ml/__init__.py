"""From-scratch ML substrate for pre-execution power prediction (Sec. 5).

scikit-learn is not a dependency; the three models the paper evaluates
are implemented here on NumPy:

* :class:`~repro.ml.tree.DecisionTreeRegressor` — the paper's "Binary
  Decision Tree" (CART, variance-reduction splits, native categorical
  support via the Breiman mean-target ordering),
* :class:`~repro.ml.knn.KNNRegressor` — distance-weighted k-NN with
  standardized numeric features and Hamming distance on categoricals,
* :class:`~repro.ml.flda.FLDARegressor` — Fisher's linear discriminant
  over quantile-binned power classes, predicting the bin mean.

:mod:`~repro.ml.split` implements the paper's evaluation protocol
(random 80/20, ten repetitions, validation users ⊆ training users).
"""

from repro.ml.base import Estimator
from repro.ml.baselines import (
    GlobalMeanBaseline,
    GroupMeanBaseline,
    HierarchicalRuleBaseline,
)
from repro.ml.encoding import FeatureSpec, encode_features
from repro.ml.flda import FLDARegressor
from repro.ml.knn import KNNRegressor
from repro.ml.metrics import (
    absolute_percentage_error,
    brier_error,
    classification_summary,
    error_summary,
    per_group_error,
)
from repro.ml.online import OnlinePowerPredictor, OnlineResult, evaluate_online
from repro.ml.pipeline import (
    FittedPredictor,
    PredictionResult,
    evaluate_models,
    fit_predictor,
    prediction_features,
)
from repro.ml.split import train_validation_split, repeated_splits
from repro.ml.tracks import (
    FAILURE_TRACK,
    GPU_POWER_TRACK,
    POWER_TRACK,
    Track,
    default_models,
    failure_models,
    get_track,
    known_tracks,
)
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "Estimator",
    "GlobalMeanBaseline",
    "GroupMeanBaseline",
    "HierarchicalRuleBaseline",
    "OnlinePowerPredictor",
    "OnlineResult",
    "evaluate_online",
    "FeatureSpec",
    "encode_features",
    "DecisionTreeRegressor",
    "KNNRegressor",
    "FLDARegressor",
    "train_validation_split",
    "repeated_splits",
    "absolute_percentage_error",
    "brier_error",
    "classification_summary",
    "error_summary",
    "per_group_error",
    "Track",
    "POWER_TRACK",
    "GPU_POWER_TRACK",
    "FAILURE_TRACK",
    "known_tracks",
    "get_track",
    "default_models",
    "failure_models",
    "PredictionResult",
    "FittedPredictor",
    "fit_predictor",
    "evaluate_models",
    "prediction_features",
]
