"""Distance-weighted k-nearest-neighbor regression.

Numeric features are standardized to unit variance; categorical features
contribute a Hamming term (0 when equal, ``categorical_weight``
otherwise). Matching the paper's diagnosis, KNN under-performs the tree
because jobs at "small distance" (similar nodes and walltime) can still
have very different power when they come from different users/apps.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.ml.base import Estimator, check_Xy

__all__ = ["KNNRegressor"]

#: Distances computed per block of query rows (16 MiB of float64): a block
#: holds ``max(1, _BLOCK_DISTANCES // n_train)`` rows, which bounds the
#: memory of a predict whatever the number of queries.
_BLOCK_DISTANCES = 2**21


class KNNRegressor(Estimator):
    """Exact k-NN over the whole training set, inverse-distance or uniform
    weighted.

    ``predict`` computes the distances of each distinct query row once and
    scatters its value back to every copy: encoded job rows repeat, because
    users rerun the same job classes. Distances are computed in blocks of
    query rows sized from the training set (:data:`_BLOCK_DISTANCES`), and
    every block goes through the same matrix-product kernel, so a row's
    prediction is bit-identical whatever else is in its batch.

    Parameters
    ----------
    k:
        Neighbor count.
    categorical_weight:
        Distance contribution of a categorical mismatch (in units of
        standardized numeric distance).
    use_categorical:
        ``False`` treats category codes as plain numbers.
    weighting:
        ``"inverse"`` (inverse-distance weights) or ``"uniform"``.
    """

    def __init__(
        self,
        k: int = 5,
        categorical_weight: float = 2.0,
        use_categorical: bool = True,
        weighting: str = "inverse",
    ) -> None:
        super().__init__()
        if k < 1:
            raise ModelError("k must be >= 1")
        if categorical_weight < 0:
            raise ModelError("categorical_weight must be >= 0")
        if weighting not in ("inverse", "uniform"):
            raise ModelError("weighting must be 'inverse' or 'uniform'")
        self.k = k
        self.categorical_weight = categorical_weight
        # use_categorical=False treats category codes as plain numbers in
        # the standardized euclidean distance — the naive construction the
        # paper's KNN baseline corresponds to (user 57 is "close" to 58).
        self.use_categorical = use_categorical
        self.weighting = weighting
        self._n_features = 0
        self._y: np.ndarray | None = None
        self._numeric: np.ndarray = np.empty(0, dtype=np.int64)
        self._cat: np.ndarray = np.empty(0, dtype=np.int64)
        self._scale: np.ndarray | None = None
        # Training-side terms of every distance, computed once in fit.
        self._train_num: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None
        self._train_cat: np.ndarray | None = None

    def fit(self, X, y, categorical: tuple[int, ...] = ()) -> "KNNRegressor":
        X, y = check_Xy(X, y)
        if not self.use_categorical:
            categorical = ()
        bad = [c for c in categorical if not 0 <= c < X.shape[1]]
        if bad:
            raise ModelError(f"categorical indices out of range: {bad}")
        self._cat = np.asarray(sorted(categorical), dtype=np.int64)
        self._numeric = np.asarray(
            [i for i in range(X.shape[1]) if i not in categorical], dtype=np.int64
        )
        scale = X[:, self._numeric].std(axis=0)
        scale[scale == 0] = 1.0
        self._scale = scale
        self._train_num = X[:, self._numeric] / scale
        self._train_sq = (self._train_num * self._train_num).sum(axis=1)
        self._train_cat = X[:, self._cat]
        self._n_features = X.shape[1]
        self._y = y
        self._fitted = True
        return self

    def predict(self, X) -> np.ndarray:
        self._require_fitted()
        X, _ = check_Xy(X)
        if X.shape[1] != self._n_features:
            raise ModelError(
                f"X has {X.shape[1]} features; model was fitted with {self._n_features}"
            )
        # Identical rows have identical distances, neighbours and values.
        # The inverse is flattened: its shape varies across numpy versions.
        distinct, inverse = np.unique(X, axis=0, return_inverse=True)
        rows = max(1, _BLOCK_DISTANCES // len(self._y))
        out = np.empty(len(distinct))
        for lo in range(0, len(distinct), rows):
            out[lo:lo + rows] = self._predict_block(distinct[lo:lo + rows])
        return out[inverse.reshape(-1)]

    def _predict_block(self, q: np.ndarray) -> np.ndarray:
        """Predictions for one block of distinct query rows."""
        k = min(self.k, len(self._y))
        q_num = q[:, self._numeric] / self._scale
        # numpy computes a one-row product with a matrix-vector BLAS
        # routine that rounds differently from the matrix-matrix one, so
        # a row's distances would depend on its block. Stack a lone row
        # twice and keep the first product row.
        lhs = q_num if len(q) > 1 else np.concatenate([q_num, q_num])
        cross = (2.0 * lhs) @ self._train_num.T
        # Squared euclidean over standardized numerics.
        d2 = (q_num * q_num).sum(axis=1)[:, None] + self._train_sq[None, :]
        d2 -= cross[: len(q)]
        del cross
        if len(self._cat):
            q_cat = q[:, self._cat]
            mism = (q_cat[:, None, :] != self._train_cat[None, :, :]).sum(axis=2)
            d2 += (self.categorical_weight**2) * mism
            del mism
        np.maximum(d2, 0.0, out=d2)
        # Copy the k columns so the full index array is freed.
        nn = np.argpartition(d2, k - 1, axis=1)[:, :k].copy()
        if self.weighting == "uniform":
            return self._y[nn].mean(axis=1)
        weights = 1.0 / (np.sqrt(np.take_along_axis(d2, nn, axis=1)) + 1e-9)
        return (self._y[nn] * weights).sum(axis=1) / weights.sum(axis=1)
