"""Runner behavior: parity, warm-cache speedup, parallel determinism."""

import numpy as np
import pytest

from repro.errors import CacheError, PipelineError
from repro.pipeline import (
    MANIFEST_NAME,
    ArtifactCache,
    RunManifest,
    ShardConfig,
    build_dataset,
    build_jobs,
    load_dataset,
    load_jobs,
    run_pipeline,
    save_dataset,
    stage_key,
)
from repro.telemetry import generate_dataset
from repro.telemetry.schema import save_jobs_csv

TINY = dict(num_nodes=16, num_users=8, horizon_s=2 * 86400, max_traces=5)

SHARDS = [
    ShardConfig(system, seed=seed, **TINY)
    for system in ("emmy", "meggie")
    for seed in (1, 2)
]


def assert_datasets_identical(a, b) -> None:
    """Exact (bitwise) equality of every array the dataset carries."""
    assert a.spec == b.spec
    assert a.horizon_s == b.horizon_s
    assert sorted(a.jobs.column_names) == sorted(b.jobs.column_names)
    for col in a.jobs.column_names:
        assert np.array_equal(a.jobs[col], b.jobs[col]), col
    assert np.array_equal(a.active_nodes, b.active_nodes)
    assert np.array_equal(a.job_power_watts, b.job_power_watts)
    assert list(a.traces) == list(b.traces)
    for jid in a.traces:
        ta, tb = a.traces[jid], b.traces[jid]
        assert (ta.job_id, ta.user_id, ta.app) == (tb.job_id, tb.user_id, tb.app)
        assert np.array_equal(ta.matrix, tb.matrix), jid


class TestBuildDataset:
    def test_matches_generate_dataset_exactly(self, tmp_path):
        direct = generate_dataset("emmy", seed=1, **TINY)
        cached = build_dataset("emmy", seed=1, cache_dir=tmp_path, **TINY)
        assert_datasets_identical(direct, cached)
        # Second call is a cache hit and still identical.
        warm = build_dataset("emmy", seed=1, cache_dir=tmp_path, **TINY)
        assert_datasets_identical(direct, warm)


def assert_tables_identical(a, b) -> None:
    """Same columns in the same order, same dtypes, bitwise-equal values."""
    assert a.column_names == b.column_names
    for col in a.column_names:
        assert a[col].dtype == b[col].dtype, col
        assert np.array_equal(a[col], b[col]), col


class TestBuildJobs:
    def test_matches_build_dataset_cold_and_warm(self, tmp_path):
        jobs_cold = build_jobs("emmy", seed=1, cache_dir=tmp_path / "a", **TINY)
        dataset_cold = build_dataset("emmy", seed=1, cache_dir=tmp_path / "b", **TINY)
        jobs_warm = build_jobs("emmy", seed=1, cache_dir=tmp_path / "b", **TINY)
        dataset_warm = build_dataset("emmy", seed=1, cache_dir=tmp_path / "a", **TINY)
        for jobs in (jobs_cold, jobs_warm):
            for dataset in (dataset_cold, dataset_warm):
                assert_tables_identical(jobs, dataset.jobs)

    def test_cold_build_commits_the_same_dataset_entry(self, tmp_path):
        build_jobs("meggie", seed=2, cache_dir=tmp_path / "a", **TINY)
        build_dataset("meggie", seed=2, cache_dir=tmp_path / "b", **TINY)
        key = stage_key(ShardConfig("meggie", seed=2, **TINY), "dataset")
        entries = {
            side: ArtifactCache(tmp_path / side).entry_dir("dataset", key)
            for side in ("a", "b")
        }
        names = sorted(p.name for p in entries["a"].iterdir() if p.suffix == ".npz")
        assert names == ["jobs.npz", "samples.npz", "timeline.npz"]
        for name in names + ["dataset.json"]:
            assert (entries["a"] / name).read_bytes() == (entries["b"] / name).read_bytes()

    def test_load_jobs_rejects_a_non_artifact(self, tmp_path):
        with pytest.raises(CacheError, match="not a dataset artifact"):
            load_jobs(tmp_path)


class TestArtifactRoundTrip:
    def test_save_load_identity(self, tmp_path):
        dataset = generate_dataset("meggie", seed=2, **TINY)
        meta = save_dataset(dataset, tmp_path / "art")
        assert meta["n_jobs"] == dataset.num_jobs
        reloaded = load_dataset(tmp_path / "art")
        assert_datasets_identical(dataset, reloaded)


class TestRunPipeline:
    def test_empty_shards_rejected(self, tmp_path):
        with pytest.raises(PipelineError):
            run_pipeline([], cache_dir=tmp_path)

    def test_bad_workers_rejected(self, tmp_path):
        with pytest.raises(PipelineError):
            run_pipeline(SHARDS, cache_dir=tmp_path, workers=0)

    def test_warm_cache_at_least_5x_faster(self, tmp_path):
        cold = run_pipeline(SHARDS[:2], cache_dir=tmp_path)
        warm = run_pipeline(SHARDS[:2], cache_dir=tmp_path)
        assert not cold.fully_cached
        assert warm.fully_cached
        assert warm.stages_cached == warm.stages_total
        # The acceptance bar from the issue; in practice it is >100x.
        assert warm.total_seconds * 5 <= cold.total_seconds

    def test_manifest_round_trip(self, tmp_path):
        manifest = run_pipeline(
            SHARDS[:1], cache_dir=tmp_path / "c", manifest_path=tmp_path / "m.json"
        )
        assert (tmp_path / "c" / MANIFEST_NAME).is_file()
        loaded = RunManifest.load(tmp_path / "m.json")
        assert loaded.to_dict() == manifest.to_dict()
        assert loaded.n_jobs == manifest.n_jobs > 0
        report = loaded.shards[0]
        assert [t.stage for t in report.stages] == [
            "workload", "schedule", "telemetry", "dataset",
        ]
        assert all(t.n_items > 0 for t in report.stages)

    def test_cold_build_commits_only_the_dataset(self, tmp_path, monkeypatch):
        pickled = []
        monkeypatch.setattr(
            ArtifactCache, "store_pickle",
            lambda self, stage, *args, **kwargs: pickled.append(stage),
        )
        shard = SHARDS[0]
        key = stage_key(shard, "dataset")
        cold = run_pipeline([shard], cache_dir=tmp_path)
        assert pickled == []
        # tmp/ is the commit staging area, empty after the rename.
        stage_dirs = {p.name for p in tmp_path.iterdir() if p.is_dir()} - {"tmp"}
        assert stage_dirs == {"dataset"}
        (report,) = cold.shards
        assert [(t.stage, t.key, t.cached) for t in report.stages] == [
            (stage, key, False)
            for stage in ("workload", "schedule", "telemetry", "dataset")
        ]
        assert cold.stages_cached == 0
        (warm,) = run_pipeline([shard], cache_dir=tmp_path).shards
        assert [(t.stage, t.key, t.cached) for t in warm.stages] == [
            ("dataset", key, True)
        ]

    def test_shards_deduplicated_and_dicts_accepted(self, tmp_path):
        manifest = run_pipeline(
            [SHARDS[0], SHARDS[0].to_dict()], cache_dir=tmp_path
        )
        assert len(manifest.shards) == 1


class TestParallelDeterminism:
    def test_serial_and_parallel_runs_are_byte_identical(self, tmp_path):
        serial_root, parallel_root = tmp_path / "serial", tmp_path / "parallel"
        serial = run_pipeline(SHARDS, cache_dir=serial_root, workers=1)
        parallel = run_pipeline(SHARDS, cache_dir=parallel_root, workers=4)
        assert parallel.workers == 4
        assert [s.config for s in serial.shards] == [s.config for s in parallel.shards]

        for shard in SHARDS:
            key = stage_key(shard, "dataset")
            a = ArtifactCache(serial_root).entry_dir("dataset", key)
            b = ArtifactCache(parallel_root).entry_dir("dataset", key)
            # Same artifact files, byte for byte (meta.json carries a
            # wall-clock timestamp, so it is excluded by design).
            names = sorted(p.name for p in a.iterdir() if p.name != "meta.json")
            assert names == sorted(p.name for p in b.iterdir() if p.name != "meta.json")
            assert "jobs.npz" in names and "dataset.json" in names
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (
                    f"{shard.label}/{name} differs between serial and parallel runs"
                )

        # CSV exports of the reloaded datasets match byte for byte too.
        for shard in SHARDS[:1]:
            key = stage_key(shard, "dataset")
            for i, root in enumerate((serial_root, parallel_root)):
                ds = load_dataset(ArtifactCache(root).entry_dir("dataset", key))
                save_jobs_csv(ds.jobs, tmp_path / f"jobs{i}.csv")
            assert (tmp_path / "jobs0.csv").read_bytes() == (
                tmp_path / "jobs1.csv"
            ).read_bytes()
