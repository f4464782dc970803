"""Fisher's Linear Discriminant Analysis for power prediction.

The paper evaluates FLDA as a *classification* approach to power
prediction: per-node power is discretized into classes, a linear
discriminant assigns each validation job to a class, and the class's
mean power is the prediction. The linear decision boundaries are exactly
why the paper finds it weak on Emmy ("a linear classification
approach … performs worse when the dataset is diverse and cannot be
simply divided along linear lines").

Implementation: quantile-bin the target into ``n_bins`` classes, one-hot
the categorical features, and classify with regularized LDA (shared
within-class covariance, Gaussian class conditionals, equal treatment
of priors via the standard discriminant score).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.base import Estimator, check_Xy

__all__ = ["FLDARegressor"]


class FLDARegressor(Estimator):
    """LDA over quantile-binned targets; predicts the assigned bin's mean.

    Parameters
    ----------
    n_bins:
        Number of power classes (quantile bins over the training target).
    ridge:
        Tikhonov term added to the pooled covariance for invertibility
        (one-hot user blocks make it rank-deficient otherwise).
    """

    def __init__(self, n_bins: int = 10, ridge: float = 1e-3) -> None:
        super().__init__()
        if n_bins < 2:
            raise ModelError("n_bins must be >= 2")
        if ridge <= 0:
            raise ModelError("ridge must be positive")
        self.n_bins = n_bins
        self.ridge = ridge
        self._cat: tuple[int, ...] = ()
        self._cat_cards: list[int] = []
        self._num_idx: np.ndarray = np.empty(0, dtype=np.int64)
        self._num_mean: np.ndarray | None = None
        self._num_scale: np.ndarray | None = None
        self._coef: np.ndarray | None = None  # (n_classes, d)
        self._intercept: np.ndarray | None = None
        self._class_means: np.ndarray | None = None

    # -- encoding ----------------------------------------------------------

    def _expand(self, X: np.ndarray) -> np.ndarray:
        """One-hot categoricals + standardized numerics, written into one
        matrix allocated once."""
        rows = np.arange(X.shape[0])
        Z = np.zeros((X.shape[0], sum(self._cat_cards) + len(self._num_idx)))
        offset = 0
        for j, card in zip(self._cat, self._cat_cards):
            codes = X[:, j].astype(np.int64)
            if np.any((codes < 0) | (codes >= card)):
                raise ModelError(
                    f"categorical feature {j} has codes outside [0, {card})"
                )
            Z[rows, offset + codes] = 1.0
            offset += card
        if len(self._num_idx):
            Z[:, offset:] = (X[:, self._num_idx] - self._num_mean) / self._num_scale
        return Z

    # -- fitting -------------------------------------------------------------

    def fit(self, X, y, categorical: tuple[int, ...] = ()) -> "FLDARegressor":
        X, y = check_Xy(X, y)
        bad = [c for c in categorical if not 0 <= c < X.shape[1]]
        if bad:
            raise ModelError(f"categorical indices out of range: {bad}")
        self._cat = tuple(sorted(categorical))
        self._cat_cards = [int(X[:, j].max()) + 1 for j in self._cat]
        self._num_idx = np.asarray(
            [i for i in range(X.shape[1]) if i not in categorical], dtype=np.int64
        )
        if len(self._num_idx):
            self._num_mean = X[:, self._num_idx].mean(axis=0)
            scale = X[:, self._num_idx].std(axis=0)
            scale[scale == 0] = 1.0
            self._num_scale = scale

        # Quantile-bin the target into classes (merge empty/duplicate edges).
        edges = np.unique(np.quantile(y, np.linspace(0, 1, self.n_bins + 1)[1:-1]))
        labels = np.searchsorted(edges, y, side="left")
        classes, labels = np.unique(labels, return_inverse=True)
        n_classes = len(classes)
        if n_classes < 2:
            raise ModelError("target collapses to a single class; cannot fit FLDA")

        Z = self._expand(X)
        d = Z.shape[1]
        means = np.empty((n_classes, d))
        priors = np.empty(n_classes)
        cov = np.zeros((d, d))
        for c in range(n_classes):
            mask = labels == c
            members = Z[mask]
            means[c] = members.mean(axis=0)
            priors[c] = mask.mean()
            centered = members - means[c]
            cov += centered.T @ centered
        cov /= max(1, Z.shape[0] - n_classes)
        cov += self.ridge * np.eye(d)

        # Linear discriminant: δ_c(z) = z·Σ⁻¹µ_c − ½µ_cᵀΣ⁻¹µ_c + log π_c.
        solve = np.linalg.solve(cov, means.T).T  # (n_classes, d)
        self._coef = solve
        self._intercept = -0.5 * np.einsum("cd,cd->c", means, solve) + np.log(priors)

        self._class_means = np.asarray(
            [y[labels == c].mean() for c in range(n_classes)]
        )
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X, _ = check_Xy(X)
        Z = self._expand(X)
        scores = Z @ self._coef.T + self._intercept
        return self._class_means[np.argmax(scores, axis=1)]

    def predict_class(self, X) -> np.ndarray:
        """Assigned power-class index per row (diagnostics)."""
        self._require_fitted()
        X, _ = check_Xy(X)
        Z = self._expand(X)
        return np.argmax(Z @ self._coef.T + self._intercept, axis=1)
