"""Cache fault points and the registry's recovery semantics.

Each test arms one fault, asserts the registry absorbs it (retry,
retrain, or in-memory fallback — never an error out of ``get``), and
checks the answers stay bit-identical once the fault clears.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import CacheError
from repro.faults import FaultPlan, FaultRule, arm
from repro.pipeline.cache import PAYLOAD_NAME, ArtifactCache
from repro.serve import ModelRegistry
from repro.serve.registry import MODEL_STAGE


def _registry(cache_dir, **kwargs) -> ModelRegistry:
    kwargs.setdefault("retry_backoff_s", 0.001)
    return ModelRegistry(cache_dir=cache_dir, **kwargs)


def _plan(point: str, **kwargs) -> FaultPlan:
    return FaultPlan(seed=0, rules=(FaultRule(point, **kwargs),))


def test_cache_read_fault_falls_back_to_retraining(faults_cache, tiny_spec,
                                                   tiny_records):
    trained = _registry(faults_cache).get(tiny_spec, "BDT")
    registry = _registry(faults_cache)
    with arm(_plan("cache.read", rate=1.0)):
        servable = registry.get(tiny_spec, "BDT")
    stats = registry.stats()
    assert stats["trained"] == 1 and stats["disk_loads"] == 0
    assert stats["load_failures"] == registry.load_retries + 1
    # Retraining used the (cached, byte-identical) dataset, so the
    # recovered model answers exactly like the original artifact.
    np.testing.assert_array_equal(
        servable.predict_records(tiny_records),
        trained.predict_records(tiny_records),
    )


def test_transient_read_fault_recovers_within_the_retries(faults_cache,
                                                          tiny_spec):
    _registry(faults_cache).get(tiny_spec, "BDT")
    registry = _registry(faults_cache, load_retries=2)
    # Fires on the first load attempt only; the first retry succeeds.
    with arm(_plan("cache.read", rate=1.0, stop=1)):
        registry.get(tiny_spec, "BDT")
    stats = registry.stats()
    assert stats["disk_loads"] == 1 and stats["trained"] == 0
    assert stats["load_failures"] == 1


def test_injected_corrupt_pickle_forces_retrain(faults_cache, tiny_spec):
    _registry(faults_cache).get(tiny_spec, "BDT")
    registry = _registry(faults_cache)
    with arm(_plan("cache.corrupt", rate=1.0)):
        registry.get(tiny_spec, "BDT")
    stats = registry.stats()
    assert stats["trained"] == 1 and stats["disk_loads"] == 0
    assert stats["load_failures"] == registry.load_retries + 1


def test_actually_corrupted_artifact_forces_retrain(tmp_path, tiny_spec):
    registry = _registry(tmp_path)
    registry.get(tiny_spec, "BDT")
    disk_key = registry.model_key(tiny_spec, "BDT")
    payload = registry.cache.entry_dir(MODEL_STAGE, disk_key) / PAYLOAD_NAME
    payload.write_bytes(b"\x80\x04 truncated garbage")
    with pytest.raises(pickle.UnpicklingError):
        registry.cache.load_pickle(MODEL_STAGE, disk_key)
    fresh = _registry(tmp_path)
    servable = fresh.get(tiny_spec, "BDT")  # must not raise
    assert servable.known_users
    assert fresh.stats()["trained"] == 1


def test_cache_write_fault_serves_from_memory(tmp_path, tiny_spec):
    registry = _registry(tmp_path)
    with arm(_plan("cache.write", rate=1.0)) as injector:
        servable = registry.get(tiny_spec, "BDT")
        assert injector.fires("cache.write") > 0
    assert servable.known_users
    stats = registry.stats()
    assert stats["store_failures"] == 1
    assert stats["dataset_fallbacks"] == 1  # pipeline commits failed too
    # Nothing was committed: a later cold registry simply retrains.
    assert registry.cache.entries(MODEL_STAGE) == []
    assert _registry(tmp_path).get(tiny_spec, "BDT").known_users


def test_dataset_fallback_is_byte_identical(tmp_path, faults_cache, tiny_spec,
                                            tiny_records):
    """A registry whose cache is unusable trains on the same bytes."""
    baseline = _registry(faults_cache).get(tiny_spec, "BDT")
    walled = _registry(tmp_path)
    with arm(_plan("cache.write", rate=1.0)):
        recovered = walled.get(tiny_spec, "BDT")
    np.testing.assert_array_equal(
        recovered.predict_records(tiny_records),
        baseline.predict_records(tiny_records),
    )


def test_injected_read_fault_raises_cache_error_at_the_cache_layer(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_pickle("model", "k" * 64, [1, 2, 3], {"n_items": 3})
    with arm(_plan("cache.read", rate=1.0)):
        with pytest.raises(CacheError, match="injected fault: cache.read"):
            cache.load_pickle("model", "k" * 64)
    assert cache.load_pickle("model", "k" * 64) == [1, 2, 3]  # cleared
