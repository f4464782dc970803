"""Array-backed BDT inference: the serving layer's fast tree walk.

The fitted :class:`~repro.ml.tree.DecisionTreeRegressor` predicts by
recursing over Python ``_Node`` objects — fine for the offline protocol,
but on the serving hot path every batch pays thousands of attribute
lookups and recursive calls. :class:`FlatBDT` flattens the fitted tree
once into contiguous NumPy arrays (feature / threshold / child indices /
leaf values, plus a boolean membership matrix for categorical splits)
and descends *level-synchronously*: one vectorized step per tree level
moves every still-active row to its child node, so a whole batch is
predicted in ``O(depth)`` NumPy ops regardless of batch size.

Bit-identity is the contract, not a goal: the flat walk evaluates the
exact same ``col <= threshold`` comparisons and the exact same category
memberships the object tree evaluates, and leaves carry bit-copied
predictions — so ``FlatBDT.predict(X)`` equals
``DecisionTreeRegressor.predict(X)`` to the last bit, and the offline
:func:`~repro.ml.pipeline.evaluate_models` protocol remains the oracle
for every served prediction (enforced by a hypothesis property in
``tests/serve/test_flat_bdt.py``).

:class:`FlatBDTServable` is the registry-facing wrapper: it shares the
wrapped :class:`~repro.ml.pipeline.FittedPredictor`'s encoders (so the
encode path is *the same code*, not a re-implementation) and swaps only
the tree walk.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ServeError

__all__ = ["FlatBDT", "FlatBDTServable"]


class FlatBDT:
    """One fitted regression tree in structure-of-arrays form.

    Arrays (all length ``n_nodes``, level-order):

    * ``feature`` — split feature index, ``-1`` for leaves;
    * ``threshold`` — numeric split threshold (``col <= threshold`` goes
      left), unused for categorical nodes;
    * ``left`` / ``right`` — child node indices (``-1`` for leaves);
    * ``value`` — node prediction (answered when the walk lands here);
    * ``cat_row`` — row into :attr:`cat_mask` for categorical nodes,
      ``-1`` otherwise;
    * ``cat_mask`` — ``(n_categorical_nodes, n_codes)`` boolean matrix;
      ``cat_mask[row, code]`` is True when ``code`` goes left.

    Build one with :meth:`from_tree`; :meth:`predict` is the vectorized
    level-order descent.
    """

    __slots__ = (
        "feature",
        "threshold",
        "left",
        "right",
        "value",
        "cat_row",
        "cat_mask",
        "n_features",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        cat_row: np.ndarray,
        cat_mask: np.ndarray,
        n_features: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.cat_row = cat_row
        self.cat_mask = cat_mask
        self.n_features = n_features

    # -- construction ----------------------------------------------------

    @classmethod
    def from_tree(cls, tree) -> "FlatBDT":
        """Flatten a fitted :class:`~repro.ml.tree.DecisionTreeRegressor`.

        Level-order (BFS) so sibling subtrees sit adjacently and the
        descent touches monotonically increasing node indices.
        """
        root = tree.root  # raises ModelError when not fitted
        nodes = [root]
        order = 0
        # BFS assigning indices; children discovered after their parent.
        while order < len(nodes):
            node = nodes[order]
            order += 1
            if not node.is_leaf:
                nodes.append(node.left)
                nodes.append(node.right)
        index_of = {id(node): i for i, node in enumerate(nodes)}

        n = len(nodes)
        feature = np.full(n, -1, dtype=np.int32)
        threshold = np.zeros(n, dtype=np.float64)
        left = np.full(n, -1, dtype=np.int32)
        right = np.full(n, -1, dtype=np.int32)
        value = np.empty(n, dtype=np.float64)
        cat_row = np.full(n, -1, dtype=np.int32)

        cat_sets: list[frozenset] = []
        for i, node in enumerate(nodes):
            value[i] = node.prediction
            if node.is_leaf:
                continue
            feature[i] = node.feature
            left[i] = index_of[id(node.left)]
            right[i] = index_of[id(node.right)]
            if node.left_categories is not None:
                cat_row[i] = len(cat_sets)
                cat_sets.append(node.left_categories)
            else:
                threshold[i] = node.threshold

        width = 1 + max(
            (int(c) for cats in cat_sets for c in cats), default=-1
        )
        cat_mask = np.zeros((len(cat_sets), max(width, 1)), dtype=bool)
        for row, cats in enumerate(cat_sets):
            for c in cats:
                cat_mask[row, int(c)] = True
        return cls(
            feature,
            threshold,
            left,
            right,
            value,
            cat_row,
            cat_mask,
            n_features=tree._n_features,
        )

    # -- inference -------------------------------------------------------

    def predict(self, X) -> np.ndarray:
        """Vectorized level-order descent; bit-identical to the object tree.

        Each loop iteration advances every still-active row one level:
        gather the rows' current nodes, evaluate their split condition in
        bulk (numeric compare or categorical mask lookup), and index into
        the child arrays. Rows parked on leaves drop out of the active
        set, so the loop runs at most ``depth`` times.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ServeError(
                f"flat BDT expects (n, {self.n_features}) inputs, "
                f"got {X.shape}"
            )
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int32)
        active = (
            np.arange(n, dtype=np.intp)
            if self.feature[0] >= 0
            else np.empty(0, dtype=np.intp)
        )
        while active.size:
            current = node[active]
            col = X[active, self.feature[current]]
            go_left = col <= self.threshold[current]
            rows = self.cat_row[current]
            is_cat = rows >= 0
            if is_cat.any():
                codes = col[is_cat].astype(np.int64)
                in_range = (codes >= 0) & (codes < self.cat_mask.shape[1])
                safe = np.where(in_range, codes, 0)
                go_left[is_cat] = self.cat_mask[rows[is_cat], safe] & in_range
            nxt = np.where(go_left, self.left[current], self.right[current])
            node[active] = nxt
            active = active[self.feature[nxt] >= 0]
        return self.value[node]


class FlatBDTServable:
    """Registry servable answering BDT requests through :class:`FlatBDT`.

    Wraps a fitted :class:`~repro.ml.pipeline.FittedPredictor` whose
    estimator is a :class:`~repro.ml.tree.DecisionTreeRegressor`; the
    encode path (category codes, log1p numerics) is delegated to the
    wrapped predictor so served features can never drift from the
    offline protocol's features. Only the tree walk is swapped for the
    array descent. The registry stores the *wrapped predictor* on disk
    (artifact format unchanged) and re-wraps on load.
    """

    def __init__(self, predictor) -> None:
        from repro.ml.tree import DecisionTreeRegressor

        if not isinstance(getattr(predictor, "model", None), DecisionTreeRegressor):
            raise ServeError(
                "FlatBDTServable wraps a FittedPredictor holding a "
                f"DecisionTreeRegressor, got {type(predictor).__name__}"
            )
        self.predictor = predictor
        self.flat = FlatBDT.from_tree(predictor.model)
        self.n_train = predictor.n_train
        # Keep the wrapped predictor's identity ("BDT", or a track model
        # like "GPU"/"FAIL") so responses report the right served_by.
        self.model_name = getattr(predictor, "model_name", "BDT")

    @property
    def known_users(self) -> frozenset[str]:
        """Users the wrapped predictor's encoders saw at fit time."""
        return self.predictor.known_users

    @property
    def feature_spec(self):
        """The wrapped predictor's feature spec (drives request validation)."""
        return self.predictor.feature_spec

    def predict_records(self, records: Sequence[Mapping]) -> np.ndarray:
        """Encode request rows via the shared path, predict via arrays."""
        X = self.predictor.encode_records(records)
        return self.flat.predict(X)
