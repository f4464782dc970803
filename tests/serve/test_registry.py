"""ModelRegistry: train-once semantics, disk reload, LRU, addressing."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ServeError
from repro.serve import ModelRegistry
from repro.serve.registry import SERVE_MODELS


def test_first_get_trains_second_hits_warm(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path)
    first = registry.get(tiny_spec, "BDT")
    assert registry.stats() == {
        "capacity": 8, "warm": 1, "hits": 0,
        "misses": 1, "disk_loads": 0, "trained": 1,
        "load_failures": 0, "store_failures": 0, "dataset_fallbacks": 0,
    }
    assert registry.last_train_seconds > 0
    second = registry.get(tiny_spec, "BDT")
    assert second is first
    assert registry.stats()["hits"] == 1
    assert registry.stats()["trained"] == 1


def test_fresh_registry_reloads_from_disk(tmp_path, tiny_spec, tiny_records):
    trained = ModelRegistry(cache_dir=tmp_path).get(tiny_spec, "BDT")
    reloaded_registry = ModelRegistry(cache_dir=tmp_path)
    reloaded = reloaded_registry.get(tiny_spec, "BDT")
    stats = reloaded_registry.stats()
    assert stats["trained"] == 0 and stats["disk_loads"] == 1
    # The pickled predictor answers bit-identically to the one trained.
    np.testing.assert_array_equal(
        reloaded.predict_records(tiny_records),
        trained.predict_records(tiny_records),
    )


def test_lru_evicts_least_recently_served(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path, capacity=1)
    registry.get(tiny_spec, "BDT")
    registry.get(tiny_spec, "online")
    assert registry.stats()["warm"] == 1
    assert registry.loaded()[0]["model"] == "online"
    # Evicted from warm, but its disk artifact survives.
    registry.get(tiny_spec, "BDT")
    assert registry.stats() == {
        "capacity": 1, "warm": 1, "hits": 0,
        "misses": 3, "disk_loads": 1, "trained": 2,
        "load_failures": 0, "store_failures": 0, "dataset_fallbacks": 0,
    }


def test_concurrent_gets_survive_constant_eviction(tmp_path, tiny_spec,
                                                   tiny_records):
    """8 threads hammer a capacity-1 registry alternating two models.

    Every get lands during an eviction storm (each model's warm slot is
    stolen by the other), so the registry constantly reloads from disk —
    yet every thread must see bit-identical predictions and nothing may
    ever retrain after the first commit.
    """
    registry = ModelRegistry(cache_dir=tmp_path, capacity=1)
    probe = tiny_records[:4]
    baseline = {
        model: registry.get(tiny_spec, model).predict_records(probe)
        for model in ("BDT", "online")
    }
    n_threads = 8
    errors: list[BaseException] = []
    barrier = threading.Barrier(n_threads)

    def hammer(worker: int) -> None:
        barrier.wait()
        try:
            for i in range(12):
                model = ("BDT", "online")[(worker + i) % 2]
                servable = registry.get(tiny_spec, model)
                np.testing.assert_array_equal(
                    servable.predict_records(probe), baseline[model]
                )
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    stats = registry.stats()
    assert stats["warm"] == 1
    assert stats["trained"] == 2  # only the two seeding gets trained
    assert stats["disk_loads"] >= 1 and stats["load_failures"] == 0
    assert stats["hits"] + stats["misses"] >= 2 + n_threads * 12


def test_model_keys_are_stable_and_distinct(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path)
    keys = {model: registry.model_key(tiny_spec, model) for model in SERVE_MODELS}
    assert len(set(keys.values())) == len(SERVE_MODELS)
    other = ModelRegistry(cache_dir=tmp_path / "elsewhere")
    assert other.model_key(tiny_spec, "BDT") == keys["BDT"]
    # A different scenario means a different dataset digest, so new keys.
    assert registry.model_key(tiny_spec.replace(seed=99), "BDT") != keys["BDT"]


def test_unknown_model_rejected(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path)
    with pytest.raises(ServeError, match="unknown model"):
        registry.get(tiny_spec, "XGBoost")
    with pytest.raises(ServeError, match="unknown model"):
        registry.model_key(tiny_spec, "XGBoost")


def test_capacity_validated(tmp_path):
    with pytest.raises(ServeError):
        ModelRegistry(cache_dir=tmp_path, capacity=0)


def test_online_model_accepts_unseen_users(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path)
    servable = registry.get(tiny_spec, "online")
    assert servable.known_users is None
    predictions = servable.predict_records(
        [{"user": "never-seen-before", "nodes": 2, "req_walltime_s": 3600}]
    )
    assert np.isfinite(predictions).all() and predictions[0] > 0


def test_estimator_models_freeze_their_user_vocabulary(tmp_path, tiny_spec):
    servable = ModelRegistry(cache_dir=tmp_path).get(tiny_spec, "BDT")
    assert servable.known_users  # non-empty frozenset
    assert "never-seen-before" not in servable.known_users


def test_training_never_reads_the_samples_table(tmp_path, tiny_spec, tiny_records,
                                                monkeypatch):
    """Every served model and the fallback train on the job table alone."""
    from repro.ml import default_models, fit_predictor
    from repro.pipeline import artifacts, build_dataset
    from repro.serve.registry import _fit_online

    jobs = build_dataset(**tiny_spec.dataset_kwargs(), cache_dir=tmp_path).jobs

    def no_samples(*args, **kwargs):
        raise AssertionError("the registry read the samples table")

    monkeypatch.setattr(artifacts, "load_samples", no_samples)
    registry = ModelRegistry(cache_dir=tmp_path)
    for model in ("BDT", "KNN", "FLDA"):
        oracle = fit_predictor(jobs, default_models()[model], model_name=model)
        np.testing.assert_array_equal(
            registry.get(tiny_spec, model).predict_records(tiny_records),
            oracle.predict_records(tiny_records),
        )
    np.testing.assert_array_equal(
        registry.get(tiny_spec, "online").predict_records(tiny_records),
        _fit_online(jobs).predict_records(tiny_records),
    )
    fallback = registry.fallback(tiny_spec)
    assert fallback.mean_power_w == float(jobs["pernode_power_w"].astype(float).mean())
    assert fallback.n_train == len(jobs)
    stats = registry.stats()
    assert stats["trained"] == 4 and stats["dataset_fallbacks"] == 0


def test_cold_train_does_not_stall_warm_gets(tmp_path, tiny_spec, monkeypatch):
    """A warm get returns while another model's training is still running."""
    registry = ModelRegistry(cache_dir=tmp_path)
    warm_bdt = registry.get(tiny_spec, "BDT")
    training, release = threading.Event(), threading.Event()
    real_train = registry._train

    def slow_train(spec, model):
        training.set()
        release.wait(30)
        return real_train(spec, model)

    monkeypatch.setattr(registry, "_train", slow_train)
    cold = threading.Thread(target=registry.get, args=(tiny_spec, "KNN"))
    served = []
    warm = threading.Thread(target=lambda: served.append(registry.get(tiny_spec, "BDT")))
    cold.start()
    try:
        assert training.wait(30)
        warm.start()
        # The KNN training is parked until ``release``: a registry that
        # held its lock through training could not answer before then.
        warm.join(5)
        answered_during_training = not warm.is_alive()
    finally:
        release.set()
        cold.join(30)
        warm.join(30)
    assert not cold.is_alive() and not warm.is_alive()
    assert answered_during_training
    assert served == [warm_bdt]
    assert registry.stats()["trained"] == 2


def test_concurrent_misses_on_one_key_train_once(tmp_path, tiny_spec):
    registry = ModelRegistry(cache_dir=tmp_path)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    served: list = []
    errors: list[BaseException] = []

    def miss() -> None:
        try:
            barrier.wait(30)
            served.append(registry.get(tiny_spec, "BDT"))
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=miss) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(served) == n_threads and all(s is served[0] for s in served)
    stats = registry.stats()
    assert stats["trained"] == 1 and stats["misses"] == 1
    assert stats["hits"] == n_threads - 1


_WORKER = """
import json
import sys

sys.path.insert(0, sys.argv[1])
import repro.serve.http  # noqa: F401 -- the worker's whole serving stack
from repro.serve.api import PredictRequest
from repro.serve.registry import ModelRegistry
from repro.serve.service import PredictionService
from repro.spec import ScenarioSpec

spec = ScenarioSpec.from_dict(json.loads(sys.argv[3]))
registry = ModelRegistry(cache_dir=sys.argv[2])
service = PredictionService(spec, registry=registry)
response = service.predict_request(
    PredictRequest(records=[json.loads(sys.argv[4])], model="BDT")
)
service.close()
print(json.dumps({
    "predictions": [float(v) for v in response.predictions],
    "stats": registry.stats(),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""


def test_worker_loading_a_cached_bdt_imports_no_scipy(tmp_path, tiny_spec,
                                                      tiny_records):
    trained = ModelRegistry(cache_dir=tmp_path).get(tiny_spec, "BDT")
    record = tiny_records[0]
    src = Path(__file__).resolve().parents[2] / "src"
    result = subprocess.run(
        [sys.executable, "-c", _WORKER, str(src), str(tmp_path),
         json.dumps(tiny_spec.to_dict()), json.dumps(record)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["stats"]["disk_loads"] == 1 and report["stats"]["trained"] == 0
    assert report["predictions"] == list(trained.predict_records([record]))
    assert report["scipy"] == []
