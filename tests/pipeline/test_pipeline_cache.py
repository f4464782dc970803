"""Cache correctness: keys, invalidation selectivity, targeted cleaning."""

import numpy as np
import pytest

from repro.errors import CacheError, PipelineError
from repro.pipeline import (
    ArtifactCache,
    ShardConfig,
    canonical_json,
    content_key,
    stage_key,
)

TINY = dict(num_nodes=16, num_users=8, horizon_s=2 * 86400, max_traces=5)


def dataset_key(shard: ShardConfig) -> str:
    return stage_key(shard, "dataset")


class TestContentKey:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == canonical_json({"a": [2, 3], "b": 1})

    def test_canonical_json_handles_numpy_scalars(self):
        assert canonical_json({"x": np.int64(5)}) == canonical_json({"x": 5})

    def test_canonical_json_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_content_key_is_stable(self):
        assert content_key({"a": 1}) == content_key({"a": 1})
        assert content_key({"a": 1}) != content_key({"a": 2})
        assert len(content_key({"a": 1})) == 64


class TestShardConfig:
    def test_overrides_normalized(self):
        a = ShardConfig("emmy", params_overrides={"b": 1, "a": 2})
        b = ShardConfig("emmy", params_overrides=(("a", 2), ("b", 1)))
        assert a == b
        assert a.overrides_dict == {"a": 2, "b": 1}

    def test_round_trip(self):
        shard = ShardConfig("meggie", seed=3, params_overrides={"spatial_scale": 0.0}, **TINY)
        assert ShardConfig.from_dict(shard.to_dict()) == shard

    def test_empty_system_rejected(self):
        with pytest.raises(PipelineError):
            ShardConfig("")


class TestKeySelectivity:
    """The dataset key, the one a build caches, hashes every ShardConfig field."""

    def test_dataset_key_is_pinned(self):
        # ScenarioSpec("emmy", seed=7).dataset_digest: every /v1/predict
        # response returns it and the served-model keys derive from it.
        assert stage_key(ShardConfig("emmy", seed=7), "dataset") == (
            "09e67f774c41e8d3f076078a38387722ac0b3527fa6f5fab2e1138bf8db0d38e"
        )

    def test_same_config_same_keys(self):
        assert dataset_key(ShardConfig("emmy", seed=1, **TINY)) == dataset_key(
            ShardConfig("emmy", seed=1, **TINY)
        )

    def test_seed_invalidates_everything(self):
        assert dataset_key(ShardConfig("emmy", seed=1, **TINY)) != dataset_key(
            ShardConfig("emmy", seed=2, **TINY)
        )

    def test_max_traces_changes_the_key(self):
        base = dataset_key(ShardConfig("emmy", seed=1, **TINY))
        assert dataset_key(ShardConfig("emmy", seed=1, **dict(TINY, max_traces=9))) != base

    def test_backfill_depth_changes_the_key(self):
        base = dataset_key(ShardConfig("emmy", seed=1, **TINY))
        assert dataset_key(ShardConfig("emmy", seed=1, backfill_depth=7, **TINY)) != base

    def test_variability_sigma_changes_the_key(self):
        base = dataset_key(ShardConfig("emmy", seed=1, **TINY))
        assert dataset_key(
            ShardConfig("emmy", seed=1, variability_sigma=0.0, **TINY)
        ) != base

    def test_unknown_stage_rejected(self):
        for stage in ("render", "workload", "schedule", "telemetry"):
            with pytest.raises(PipelineError):
                stage_key(ShardConfig("emmy"), stage)


class TestArtifactCache:
    def test_pickle_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = content_key({"k": 1})
        assert not cache.has("model", key)
        cache.store_pickle("model", key, [1, 2, 3], {"n_items": 3})
        assert cache.has("model", key)
        assert cache.load_pickle("model", key) == [1, 2, 3]
        assert cache.load_meta("model", key)["n_items"] == 3

    def test_missing_entry_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(CacheError):
            cache.load_pickle("model", "0" * 64)
        with pytest.raises(CacheError):
            cache.load_meta("model", "0" * 64)

    def test_store_tree_merges_build_meta(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = content_key({"k": 2})

        def build(tmp):
            (tmp / "data.txt").write_text("hello")
            return {"n_files": 1}

        cache.store_tree("dataset", key, build, {"label": "x"})
        assert (cache.entry_dir("dataset", key) / "data.txt").read_text() == "hello"
        meta = cache.load_meta("dataset", key)
        assert meta["n_files"] == 1 and meta["label"] == "x"

    def test_entries_sorted_and_filtered(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for i in range(3):
            cache.store_pickle("model", content_key({"i": i}), i, {})
        cache.store_pickle("plan", content_key({"i": 0}), 0, {})
        assert len(cache.entries()) == 4
        assert len(cache.entries("model")) == 3
        keys = [e.key for e in cache.entries("model")]
        assert keys == sorted(keys)

    def test_remove_filters_by_stage_system_seed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for system in ("emmy", "meggie"):
            for seed in (1, 2):
                meta = {"config": {"system": system, "seed": seed}}
                cache.store_pickle("model", content_key({"s": system, "n": seed}), 0, meta)
                cache.store_pickle("plan", content_key({"s": system, "n": seed}), 0, meta)
        assert cache.remove(stage="model", system="emmy") == 2
        assert len(cache.entries("model")) == 2  # meggie survives
        assert len(cache.entries("plan")) == 4  # other stage untouched
        assert cache.remove(seed=1) == 3
        assert cache.remove() == 3  # no filters: everything left
        assert cache.entries() == []

    def test_size_bytes_counts_committed_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.size_bytes() == 0
        cache.store_pickle("model", content_key({"z": 1}), list(range(100)), {})
        assert cache.size_bytes() > 0
