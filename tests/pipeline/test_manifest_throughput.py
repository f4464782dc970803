"""Throughput fields in the run manifest and stage metadata."""

import json

from repro.pipeline import RunManifest, ShardConfig, StageTiming, run_pipeline

TINY = dict(num_nodes=16, num_users=8, horizon_s=2 * 86400, max_traces=5)


class TestManifestThroughput:
    def test_cold_run_records_throughput(self, tmp_path):
        manifest = run_pipeline(
            [ShardConfig("emmy", seed=1, **TINY)], cache_dir=tmp_path
        )
        (shard,) = manifest.shards
        assert shard.n_jobs > 0
        assert shard.jobs_per_second > 0
        by_stage = {t.stage: t for t in shard.stages}
        assert set(by_stage) == {"workload", "schedule", "telemetry", "dataset"}
        for t in by_stage.values():
            assert t.items_per_second > 0
        # Trace counts only on the stages that produce traces.
        assert by_stage["telemetry"].n_traces == shard.n_traces
        assert by_stage["dataset"].n_traces == shard.n_traces
        assert by_stage["workload"].n_traces == 0
        assert by_stage["workload"].traces_per_second == 0.0
        if shard.n_traces:
            assert by_stage["telemetry"].traces_per_second > 0

    def test_manifest_json_round_trip(self, tmp_path):
        manifest = run_pipeline(
            [ShardConfig("emmy", seed=1, **TINY)],
            cache_dir=tmp_path, manifest_path=tmp_path / "m.json",
        )
        data = json.loads((tmp_path / "m.json").read_text())
        stage = data["shards"][0]["stages"][0]
        assert "items_per_second" in stage
        assert "traces_per_second" in stage
        assert "jobs_per_second" in data["shards"][0]
        loaded = RunManifest.load(tmp_path / "m.json")
        assert loaded.shards[0].n_traces == manifest.shards[0].n_traces
        assert [t.n_traces for t in loaded.shards[0].stages] == [
            t.n_traces for t in manifest.shards[0].stages
        ]

    def test_old_manifest_without_throughput_fields_loads(self):
        """Manifests written before the throughput fields stay readable."""
        timing = StageTiming.from_dict(
            {"stage": "workload", "key": "k", "seconds": 1.0,
             "cached": False, "n_items": 10}
        )
        assert timing.n_traces == 0
        assert timing.items_per_second == 10.0

    def test_rates_over_zero_seconds_are_null(self):
        from repro.pipeline import ShardReport

        timing = StageTiming(stage="chunk", key="k", seconds=0.0, cached=True,
                             n_items=10, n_traces=2)
        report = ShardReport(config=ShardConfig("emmy"), stages=[timing], n_jobs=10)
        data = report.to_dict()
        assert data["jobs_per_second"] is None
        assert data["stages"][0]["items_per_second"] is None
        assert data["stages"][0]["traces_per_second"] is None
        json.dumps(data, allow_nan=False)

    def test_stage_meta_records_build_seconds(self, tmp_path):
        from repro.pipeline import ArtifactCache

        run_pipeline([ShardConfig("emmy", seed=1, **TINY)], cache_dir=tmp_path)
        cache = ArtifactCache(tmp_path)
        for entry in cache.entries():
            assert entry.meta.get("seconds", 0) >= 0
            assert "seconds" in entry.meta
