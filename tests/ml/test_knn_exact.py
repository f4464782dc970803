"""KNNRegressor is exact: bit-identical to the brute-force block loop it
replaced, whatever the batch or the block a row lands in, and one predict
holds a bounded block of distances, not one per query row."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.ml.knn as knn_mod
from repro.analysis.prediction import default_models
from repro.ml import KNNRegressor, fit_predictor
from repro.pipeline import build_dataset
from repro.spec import ScenarioSpec

#: Encoded (user, nodes, walltime) columns; the user code is categorical.
CATEGORICAL = (0,)
#: Query rows per block in the bit-equality tests.
BLOCK = 16


def _brute_force(X_train, y, X, *, k, use_categorical, weighting, chunk_size,
                 categorical_weight=2.0):
    """The brute-force predict the distinct-row one replaced: every query
    row against the whole training set, ``chunk_size`` rows per block.

    A one-row block would take numpy's matrix-vector product, which rounds
    differently; that made a served answer depend on its batch, so every
    block given here must hold two rows or more.
    """
    categorical = CATEGORICAL if use_categorical else ()
    cat = np.asarray(sorted(categorical), dtype=np.int64)
    numeric = np.asarray(
        [i for i in range(X_train.shape[1]) if i not in categorical], dtype=np.int64
    )
    scale = X_train[:, numeric].std(axis=0)
    scale[scale == 0] = 1.0
    k = min(k, len(y))
    train_num = X_train[:, numeric] / scale
    train_cat = X_train[:, cat]
    out = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], chunk_size):
        hi = min(lo + chunk_size, X.shape[0])
        assert hi - lo >= 2, "the reference needs blocks of two rows or more"
        q_num = X[lo:hi, numeric] / scale
        d2 = (
            (q_num * q_num).sum(axis=1)[:, None]
            + (train_num * train_num).sum(axis=1)[None, :]
            - 2.0 * q_num @ train_num.T
        )
        if len(cat):
            q_cat = X[lo:hi, cat]
            mism = (q_cat[:, None, :] != train_cat[None, :, :]).sum(axis=2)
            d2 = d2 + (categorical_weight**2) * mism
        d2 = np.maximum(d2, 0.0)
        nn = np.argpartition(d2, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        if weighting == "uniform":
            out[lo:hi] = y[nn].mean(axis=1)
        else:
            ndist = np.sqrt(d2[rows, nn])
            weights = 1.0 / (ndist + 1e-9)
            out[lo:hi] = (y[nn] * weights).sum(axis=1) / weights.sum(axis=1)
    return out


def _job_rows(rng, n, n_users):
    """Encoded job rows from a few job classes: rows repeat, and so do
    distances, exactly."""
    return np.column_stack([
        rng.integers(0, n_users, n),
        rng.choice([1, 2, 4, 8, 16], n),
        rng.choice([600, 1800, 3600, 7200, 86400], n),
    ]).astype(float)


def _queries(rng, candidates, n_distinct):
    """Shuffled queries holding exactly ``n_distinct`` distinct rows, most
    of them more than once."""
    chosen = candidates[rng.choice(len(candidates), n_distinct, replace=False)]
    picks = np.concatenate(
        [np.arange(n_distinct), rng.integers(0, n_distinct, 2 * n_distinct)]
    )
    return chosen[rng.permutation(picks)]


@pytest.fixture(scope="module")
def training():
    rng = np.random.default_rng(7)
    X = _job_rows(rng, 400, 6)
    # Power set by the job class plus noise, with repeated values too.
    y = 100.0 + 10.0 * X[:, 0] + X[:, 1] + np.round(rng.normal(0, 5, len(X)))
    # Training classes and unseen ones (users beyond the training codes).
    candidates = np.unique(np.concatenate([X, _job_rows(rng, 400, 9)]), axis=0)
    # Training rows repeat and queries can match them exactly, so
    # distances tie, at zero and elsewhere.
    assert len(np.unique(X, axis=0)) < len(X) // 2
    seen = {tuple(r) for r in X.tolist()}
    assert sum(tuple(r) in seen for r in candidates.tolist()) > BLOCK
    return X, y, candidates


@pytest.mark.parametrize("use_categorical", [True, False])
@pytest.mark.parametrize("weighting", ["inverse", "uniform"])
@pytest.mark.parametrize("k", [1, 5, 15])
def test_bit_identical_to_brute_force(training, monkeypatch, k, weighting, use_categorical):
    X_train, y, candidates = training
    monkeypatch.setattr(knn_mod, "_BLOCK_DISTANCES", BLOCK * len(y))
    config = dict(k=k, use_categorical=use_categorical, weighting=weighting)
    model = KNNRegressor(**config).fit(X_train, y, categorical=CATEGORICAL)
    rng = np.random.default_rng(k)
    for n_distinct in (1, 2, BLOCK - 1, BLOCK, BLOCK + 1):
        X = _queries(rng, candidates, n_distinct)
        assert len(np.unique(X, axis=0)) == n_distinct
        expected = _brute_force(X_train, y, X, chunk_size=len(X), **config)
        np.testing.assert_array_equal(model.predict(X), expected)
        # A lone row is answered as in a batch.
        np.testing.assert_array_equal(model.predict(X[:1]), expected[:1])


def test_one_predict_holds_a_bounded_block():
    """8,210 queries against 32,841 training rows: the size of a paper-scale
    emmy validation split, whose queries hold about 800 distinct rows. The
    brute-force loop held 512 rows' distances at once (514 MiB)."""
    rng = np.random.default_rng(3)
    X_train = _job_rows(rng, 32_841, n_users=40)
    y = 100.0 + X_train[:, 0] + rng.normal(0, 5, len(X_train))
    model = KNNRegressor(k=5, use_categorical=False, weighting="uniform")
    model.fit(X_train, y, categorical=CATEGORICAL)
    X = _queries(rng, np.unique(_job_rows(rng, 4_000, n_users=40), axis=0), 800)
    X = X[rng.integers(0, len(X), 8_210)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.predict(X)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


#: emmy seed 3, 24 nodes, 8 users, 4 days (112 jobs). Its job 71 (u0002,
#: 6 nodes, 10,800 s) was answered 136.02 W alone and 117.81 W in a batch
#: when a one-row block took the matrix-vector product.
BATCH_SCENARIO = ScenarioSpec("emmy", seed=3, num_nodes=24, num_users=8, horizon_days=4)


@pytest.fixture(scope="module")
def served_knn(tmp_path_factory):
    dataset = build_dataset(
        **BATCH_SCENARIO.dataset_kwargs(), cache_dir=tmp_path_factory.mktemp("knn")
    )
    predictor = fit_predictor(dataset.jobs, default_models()["KNN"], model_name="KNN")
    return predictor.model, predictor.encode_table(dataset.jobs)


def test_prediction_does_not_depend_on_the_batch(served_knn):
    model, X = served_knn
    whole = model.predict(X)
    assert len(X) == 112
    alone = np.asarray([model.predict(X[i:i + 1])[0] for i in range(len(X))])
    np.testing.assert_array_equal(alone, whole)
    for i in range(len(X)):
        j = (i * 37 + 11) % len(X)
        np.testing.assert_array_equal(model.predict(X[[i, j]]), whole[[i, j]])
    rng = np.random.default_rng(0)
    for _ in range(5):
        order = rng.permutation(len(X))
        cuts = np.sort(rng.choice(np.arange(1, len(X)), 6, replace=False))
        for batch in np.split(order, cuts):
            np.testing.assert_array_equal(model.predict(X[batch]), whole[batch])
