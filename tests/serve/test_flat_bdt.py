"""Array-backed BDT inference: bit-identity with the object tree.

The contract of :class:`repro.serve.flat_bdt.FlatBDT` is absolute: for
every tree the training pipeline can produce and every query batch, the
vectorized level-order descent returns *the same float64 bits* as the
recursive object-tree walk, because it evaluates the identical
``col <= threshold`` / category-membership decisions. These tests pin
that contract with a hypothesis sweep over random trees and batch
sizes, and with the real serving artifact for the tiny scenario.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.ml.tree import DecisionTreeRegressor
from repro.serve.flat_bdt import FlatBDT, FlatBDTServable


def _fit_random_tree(seed: int, n_rows: int, n_cats: int, leaf: int):
    """A tree like the paper's BDT: categorical col 0 + two numerics."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.integers(0, n_cats, size=n_rows).astype(np.float64),
        np.log1p(rng.integers(1, 32, size=n_rows)).astype(np.float64),
        np.log1p(rng.uniform(60.0, 86_400.0, size=n_rows)),
    ])
    y = rng.uniform(50.0, 350.0, size=n_rows)
    tree = DecisionTreeRegressor(min_samples_leaf=leaf)
    tree.fit(X, y, categorical=(0,))
    return tree, rng


# -- property: flat descent == object-tree walk, bit for bit -------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(8, 200),
    n_cats=st.integers(2, 12),
    leaf=st.integers(1, 5),
    batch=st.integers(1, 96),
)
def test_flat_matches_tree_bitwise(seed, n_rows, n_cats, leaf, batch):
    tree, rng = _fit_random_tree(seed, n_rows, n_cats, leaf)
    flat = FlatBDT.from_tree(tree)
    # Query rows include category codes the tree never saw (n_cats + 2
    # exceeds the training range) — unseen users must route identically.
    Xq = np.column_stack([
        rng.integers(0, n_cats + 2, size=batch).astype(np.float64),
        np.log1p(rng.integers(1, 64, size=batch)).astype(np.float64),
        np.log1p(rng.uniform(1.0, 172_800.0, size=batch)),
    ])
    expected = tree.predict(Xq)
    got = flat.predict(Xq)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


def test_flat_handles_single_leaf_tree():
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(4, 2))
    tree = DecisionTreeRegressor(min_samples_leaf=4).fit(X, np.ones(4))
    flat = FlatBDT.from_tree(tree)
    np.testing.assert_array_equal(flat.predict(X), tree.predict(X))


def test_flat_rejects_unfitted_tree():
    with pytest.raises(Exception):
        FlatBDT.from_tree(DecisionTreeRegressor())


# -- the real serving artifact -------------------------------------------


@pytest.fixture(scope="module")
def fitted(tiny_spec, serve_cache):
    """The exact FittedPredictor the registry trains for the scenario."""
    from repro.ml import default_models
    from repro.ml.pipeline import fit_predictor
    from repro.pipeline import build_dataset

    dataset = build_dataset(**tiny_spec.dataset_kwargs(), cache_dir=serve_cache)
    return fit_predictor(
        dataset.jobs, default_models()["BDT"], model_name="BDT"
    )


def test_servable_bit_identical_to_predictor(fitted, tiny_records):
    servable = FlatBDTServable(fitted)
    np.testing.assert_array_equal(
        servable.predict_records(tiny_records),
        fitted.predict_records(tiny_records),
    )


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 32), seed=st.integers(0, 10_000))
def test_servable_identity_over_random_batches(fitted, tiny_records, batch, seed):
    rng = np.random.default_rng(seed)
    picks = [tiny_records[i] for i in rng.integers(0, len(tiny_records), batch)]
    servable = FlatBDTServable(fitted)
    np.testing.assert_array_equal(
        servable.predict_records(picks), fitted.predict_records(picks)
    )


def test_servable_requires_a_tree_model(fitted, tiny_spec, serve_cache):
    from repro.ml import default_models
    from repro.ml.pipeline import fit_predictor
    from repro.pipeline import build_dataset

    dataset = build_dataset(**tiny_spec.dataset_kwargs(), cache_dir=serve_cache)
    knn = fit_predictor(dataset.jobs, default_models()["KNN"], model_name="KNN")
    with pytest.raises(ServeError):
        FlatBDTServable(knn)


def test_registry_serves_flat_bdt(tiny_spec, serve_cache):
    """The registry transparently specializes BDT to the flat walker."""
    from repro.serve.registry import ModelRegistry

    registry = ModelRegistry(cache_dir=serve_cache)
    servable = registry.get(tiny_spec, "BDT")
    assert isinstance(servable, FlatBDTServable)
