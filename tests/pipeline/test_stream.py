"""Streaming pipeline: chunk determinism, byte-identity, resume, cleanup.

The streaming builder's contract is that it commits the *same dataset
cache entry, byte for byte*, as the monolithic writer — for any seed and
any chunk size — while holding only one chunk plus the scheduler's live
frontier in memory. These tests enforce the contract end to end
(hypothesis over seeds × chunk sizes), plus the pieces that make it
hold: chunked scheduling with checkpoint/restore, chunked telemetry
stream continuation, resume-after-interrupt shard reuse, and orphan
cleanup.
"""

import hashlib
import pickle
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline.cache as cache_mod
import repro.pipeline.stages as stages_mod
import repro.pipeline.stream as stream_mod
from repro.errors import PipelineError, SchedulerError
from repro.frames import read_npz
from repro.obs.metrics import peak_rss_bytes
from repro.pipeline import (
    PLAN_STAGE,
    ArtifactCache,
    ChunkPlan,
    ShardConfig,
    chunk_key,
    plan_key,
    run_pipeline,
    run_shard,
    stage_key,
    stream_shard,
)
from repro.scheduler.simulator import SchedulerConfig, Simulator
from repro.telemetry.dataset import build_inputs, sample_telemetry
from repro.telemetry.stream import TelemetryStream
from repro.workload.generator import WorkloadGenerator
from tests.helpers.memory import traced

TINY = dict(num_nodes=24, num_users=8, horizon_s=5 * 86400, max_traces=16)
# build_inputs() takes the cluster-shape knobs but not max_traces.
TINY_BUILD = {k: v for k, v in TINY.items() if k != "max_traces"}


def _shard(seed: int) -> ShardConfig:
    return ShardConfig("emmy", seed=seed, **TINY)


def _artifact_digest(cache: ArtifactCache, shard: ShardConfig) -> str:
    """SHA-256 over the dataset entry's artifact files (meta.json has
    timestamps and is excluded — it is bookkeeping, not the artifact)."""
    entry = cache.entry_dir("dataset", stage_key(shard, "dataset"))
    h = hashlib.sha256()
    for path in sorted(entry.iterdir()):
        if path.name == "meta.json":
            continue
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _monolithic_digest(tmp_path, seed: int) -> str:
    cache = ArtifactCache(tmp_path / f"mono{seed}")
    shard = _shard(seed)
    run_shard(shard, cache, want_dataset=False)
    return _artifact_digest(cache, shard)


class TestChunkPlan:
    def test_bounds_partition_every_index_once(self):
        plan = ChunkPlan(n_jobs=10, chunk_jobs=3)
        assert plan.n_chunks == 4
        covered = [j for i in range(plan.n_chunks)
                   for j in range(*plan.bounds(i))]
        assert covered == list(range(10))

    def test_exact_multiple(self):
        plan = ChunkPlan(n_jobs=9, chunk_jobs=3)
        assert plan.n_chunks == 3
        assert plan.bounds(2) == (6, 9)

    def test_single_chunk_when_oversized(self):
        plan = ChunkPlan(n_jobs=5, chunk_jobs=100)
        assert plan.n_chunks == 1
        assert plan.bounds(0) == (0, 5)

    def test_iteration_yields_index_and_bounds(self):
        assert list(ChunkPlan(n_jobs=4, chunk_jobs=2)) == [(0, 0, 2), (1, 2, 4)]

    def test_invalid_args_raise(self):
        with pytest.raises(PipelineError):
            ChunkPlan(n_jobs=0, chunk_jobs=1)
        with pytest.raises(PipelineError):
            ChunkPlan(n_jobs=5, chunk_jobs=0)
        with pytest.raises(PipelineError):
            ChunkPlan(n_jobs=5, chunk_jobs=2).bounds(3)


class TestSimulatorStreaming:
    """feed/drain/snapshot/restore must replay the monolithic event order."""

    def _plan(self, seed=3):
        cluster, params = build_inputs("emmy", seed=seed, **TINY_BUILD)
        gen = WorkloadGenerator(params, cluster.num_nodes, seed=seed)
        return cluster, gen.generate_plan()

    def test_chunked_feed_equals_run(self):
        cluster, plan = self._plan()
        cfg = SchedulerConfig(num_nodes=cluster.num_nodes)
        mono = Simulator(cfg).run(plan.materialize())
        sim = Simulator(cfg)
        out = []
        for lo in range(0, plan.n_jobs, 37):
            sim.feed(plan.materialize(lo, min(lo + 37, plan.n_jobs)))
            out.extend(sim.take_results())
        sim.drain()
        out.extend(sim.take_results())
        assert len(out) == len(mono)
        for a, b in zip(out, mono):
            assert a.spec == b.spec
            assert a.start_s == b.start_s
            assert np.array_equal(a.node_ids, b.node_ids)

    def test_snapshot_restore_roundtrip_is_bit_identical(self):
        cluster, plan = self._plan(seed=5)
        cfg = SchedulerConfig(num_nodes=cluster.num_nodes)
        mono = Simulator(cfg).run(plan.materialize())
        sim = Simulator(cfg)
        out = []
        for lo in range(0, plan.n_jobs, 53):
            sim.feed(plan.materialize(lo, min(lo + 53, plan.n_jobs)))
            out.extend(sim.take_results())
            # Kill the simulator, resurrect it from a pickled checkpoint.
            sim = Simulator.restore(pickle.loads(pickle.dumps(sim.snapshot())))
        sim.drain()
        out.extend(sim.take_results())
        assert [(j.spec.job_id, j.start_s) for j in out] == [
            (j.spec.job_id, j.start_s) for j in mono
        ]
        for a, b in zip(out, mono):
            assert np.array_equal(a.node_ids, b.node_ids)

    def test_feeding_the_past_raises(self):
        cluster, plan = self._plan()
        sim = Simulator(SchedulerConfig(num_nodes=cluster.num_nodes))
        jobs = plan.materialize()
        sim.feed(jobs[10:20])
        with pytest.raises(SchedulerError, match="before"):
            sim.feed(jobs[:10])


class TestTelemetryStream:
    def _scheduled(self, seed=5):
        cluster, params = build_inputs("emmy", seed=seed, **TINY_BUILD)
        gen = WorkloadGenerator(params, cluster.num_nodes, seed=seed)
        jobs = gen.generate()
        sched = Simulator(
            SchedulerConfig(num_nodes=cluster.num_nodes)
        ).run(jobs)
        return cluster, params, sched

    def test_chunked_sampling_equals_monolithic(self):
        cluster, params, sched = self._scheduled()
        mono = sample_telemetry(
            cluster, sched, params.horizon_s, seed=5, max_traces=16
        )
        ts = TelemetryStream(cluster, params.horizon_s, seed=5, max_traces=16)
        chunks = [ts.sample_chunk(sched[lo: lo + 41])
                  for lo in range(0, len(sched), 41)]
        assert np.array_equal(
            np.concatenate([c.pernode_power for c in chunks]), mono.pernode_power
        )
        assert np.array_equal(
            np.concatenate([c.power_sum for c in chunks]), mono.power_sum
        )
        merged = {}
        for c in chunks:
            merged.update(c.traces)
        assert list(merged) == list(mono.traces)
        for jid in merged:
            assert np.array_equal(merged[jid].matrix, mono.traces[jid].matrix)

    def test_state_restore_continues_the_stream(self):
        cluster, params, sched = self._scheduled()
        a = TelemetryStream(cluster, params.horizon_s, seed=5, max_traces=16)
        first = a.sample_chunk(sched[:100])
        state = pickle.loads(pickle.dumps(a.state()))
        rest_direct = a.sample_chunk(sched[100:])
        b = TelemetryStream(cluster, params.horizon_s, seed=5, max_traces=16)
        b.restore_state(state)
        rest_restored = b.sample_chunk(sched[100:])
        assert np.array_equal(rest_direct.power_sum, rest_restored.power_sum)
        assert list(rest_direct.traces) == list(rest_restored.traces)
        assert b.n_traces == len(first.traces) + len(rest_restored.traces)

    def test_empty_chunk_consumes_no_draws(self):
        cluster, params, sched = self._scheduled()
        a = TelemetryStream(cluster, params.horizon_s, seed=5, max_traces=16)
        b = TelemetryStream(cluster, params.horizon_s, seed=5, max_traces=16)
        empty = a.sample_chunk([])
        assert empty.num_jobs == 0
        assert np.array_equal(
            a.sample_chunk(sched).power_sum, b.sample_chunk(sched).power_sum
        )


class TestByteIdentity:
    """The acceptance criterion: same NPZ bytes for any seed/chunk size."""

    _mono_digests: dict = {}

    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 2), chunk_jobs=st.integers(23, 400))
    def test_streamed_equals_monolithic(self, tmp_path, seed, chunk_jobs):
        if seed not in self._mono_digests:
            self._mono_digests[seed] = _monolithic_digest(tmp_path, seed)
        shard = _shard(seed)
        cache = ArtifactCache(tmp_path / f"s{seed}c{chunk_jobs}")
        report = stream_shard(shard, cache, chunk_jobs=chunk_jobs)
        assert _artifact_digest(cache, shard) == self._mono_digests[seed]
        assert report.n_jobs > 0
        assert not (cache.root / "chunk").exists()  # spills cleaned up

    def test_monolithic_run_hits_streamed_entry(self, tmp_path):
        """Both modes share one cache key: stream first, run_shard hits."""
        shard = _shard(9)
        cache = ArtifactCache(tmp_path)
        stream_shard(shard, cache, chunk_jobs=100)
        report, dataset = run_shard(shard, cache, want_dataset=True)
        assert report.fully_cached
        assert dataset is not None and dataset.num_jobs == report.n_jobs

    def test_parallel_compaction_identical(self, tmp_path):
        shard = _shard(1)
        serial = ArtifactCache(tmp_path / "serial")
        parallel = ArtifactCache(tmp_path / "parallel")
        stream_shard(shard, serial, chunk_jobs=120)
        stream_shard(shard, parallel, chunk_jobs=120, compact_workers=3)
        assert _artifact_digest(serial, shard) == _artifact_digest(parallel, shard)


class TestResume:
    def test_interrupted_run_reuses_completed_shards(self, tmp_path, monkeypatch):
        shard = _shard(4)
        cache = ArtifactCache(tmp_path / "interrupted")
        # Kill the run right before compaction: all chunks are spilled.
        def boom(*args, **kwargs):
            raise RuntimeError("killed")
        monkeypatch.setattr(stream_mod, "_compact_shards", boom)
        with pytest.raises(RuntimeError, match="killed"):
            stream_shard(shard, cache, chunk_jobs=120)
        shards_left = list((cache.root / "chunk").iterdir())
        assert shards_left
        monkeypatch.undo()

        report = stream_shard(shard, cache, chunk_jobs=120)
        chunk_rows = [t for t in report.stages if t.stage == "chunk"]
        assert chunk_rows and all(t.cached for t in chunk_rows)
        ref = ArtifactCache(tmp_path / "ref")
        run_shard(shard, ref, want_dataset=False)
        assert _artifact_digest(cache, shard) == _artifact_digest(ref, shard)

    def test_mid_chunk_interrupt_resumes_from_checkpoint(self, tmp_path, monkeypatch):
        shard = _shard(6)
        cache = ArtifactCache(tmp_path / "midkill")
        real_store = ArtifactCache.store_tree
        calls = {"n": 0}

        def flaky_store(self, stage, key, build, meta):
            if stage == "chunk":
                calls["n"] += 1
                if calls["n"] == 3:
                    raise RuntimeError("killed mid-stream")
            return real_store(self, stage, key, build, meta)

        monkeypatch.setattr(ArtifactCache, "store_tree", flaky_store)
        with pytest.raises(RuntimeError, match="killed mid-stream"):
            stream_shard(shard, cache, chunk_jobs=30)
        monkeypatch.undo()
        done_before = len(list((cache.root / "chunk").iterdir()))
        assert done_before == 2

        report = stream_shard(shard, cache, chunk_jobs=30)
        cached = [t for t in report.stages if t.stage == "chunk" and t.cached]
        built = [t for t in report.stages if t.stage == "chunk" and not t.cached]
        assert len(cached) == 2 and built
        ref = ArtifactCache(tmp_path / "ref")
        run_shard(shard, ref, want_dataset=False)
        assert _artifact_digest(cache, shard) == _artifact_digest(ref, shard)


class TestOrphanCleanup:
    def test_kept_shards_become_orphans_once_dataset_commits(self, tmp_path):
        shard = _shard(2)
        cache = ArtifactCache(tmp_path)
        stream_shard(shard, cache, chunk_jobs=150, keep_shards=True)
        chunk_entries = cache.entries("chunk")
        assert chunk_entries
        removed = cache.remove_orphan_shards()
        assert removed == len(chunk_entries)
        assert not cache.entries("chunk")

    def test_resumable_shards_survive_orphan_cleanup(self, tmp_path, monkeypatch):
        shard = _shard(2)
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(
            stream_mod, "_compact_shards",
            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("killed")),
        )
        with pytest.raises(RuntimeError):
            stream_shard(shard, cache, chunk_jobs=150)
        monkeypatch.undo()
        before = len(cache.entries("chunk"))
        assert before > 0
        # The aborted dataset commit leaks a tmp/ staging dir; cleanup may
        # count that, but every resumable chunk shard must survive.
        cache.remove_orphan_shards()
        assert len(cache.entries("chunk")) == before

    def test_stale_tmp_dirs_are_removed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        (cache.root / "tmp" / "deadbeef").mkdir(parents=True)
        assert cache.remove_orphan_shards() == 1
        assert not (cache.root / "tmp").exists()

    def test_chunk_keys_depend_on_geometry(self):
        shard = _shard(0)
        assert chunk_key(shard, 100, 0) != chunk_key(shard, 100, 1)
        assert chunk_key(shard, 100, 0) != chunk_key(shard, 200, 0)
        assert chunk_key(shard, 100, 0) != chunk_key(_shard(1), 100, 0)


class TestPeakRss:
    def test_helper_reports_positive(self):
        rss = peak_rss_bytes()
        assert rss > 10 * 1024 * 1024  # a Python+numpy process is >10 MB

    def test_manifest_and_stage_meta_record_peak_rss(self, tmp_path):
        shard = _shard(0)
        manifest = run_pipeline(
            [shard], cache_dir=tmp_path, stream=True, chunk_jobs=200
        )
        assert manifest.peak_rss_bytes > 0
        assert manifest.to_dict()["peak_rss_bytes"] == manifest.peak_rss_bytes
        cache = ArtifactCache(tmp_path)
        meta = cache.load_meta("dataset", stage_key(shard, "dataset"))
        assert meta["peak_rss_bytes"] > 0
        assert meta["streamed"] is True

    def test_monolithic_stage_meta_records_peak_rss(self, tmp_path):
        shard = _shard(3)
        cache = ArtifactCache(tmp_path)
        run_shard(shard, cache, want_dataset=False)
        for stage in ("workload", "schedule", "telemetry", "dataset"):
            assert cache.load_meta(stage, stage_key(shard, stage))["peak_rss_bytes"] > 0


def _slowed(fn, seconds: float):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return fn(*args, **kwargs)
    return slow


class TestSidecarTiming:
    """A stage sidecar's ``seconds``/``peak_rss_bytes`` cover writing its files."""

    def test_monolithic_dataset_sidecar_times_the_write(self, tmp_path, monkeypatch):
        shard = _shard(3)
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(stages_mod, "save_dataset",
                            _slowed(stages_mod.save_dataset, 0.3))
        run_shard(shard, cache, want_dataset=False)
        assert cache.load_meta("dataset", stage_key(shard, "dataset"))["seconds"] >= 0.3

    def test_streamed_sidecars_time_the_write(self, tmp_path, monkeypatch):
        shard = _shard(3)
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(stream_mod, "_compact_shards",
                            _slowed(stream_mod._compact_shards, 0.3))
        # Every chunk spills at least jobs.npz and power.npz.
        monkeypatch.setattr(stream_mod, "write_npz", _slowed(stream_mod.write_npz, 0.1))
        report = stream_shard(shard, cache, chunk_jobs=50, keep_shards=True)
        assert cache.load_meta("dataset", stage_key(shard, "dataset"))["seconds"] >= 0.3
        chunks = [t for t in report.stages if t.stage == "chunk"]
        assert len(chunks) > 1
        for timing in chunks:
            assert cache.load_meta("chunk", timing.key)["seconds"] >= 0.2

    def test_pickled_sidecars_time_the_write(self, tmp_path, monkeypatch):
        # Slow the cache's payload pickling only, not the chunk checkpoints.
        slow_pickle = types.ModuleType("pickle")
        slow_pickle.__dict__.update(vars(pickle))
        slow_pickle.dump = _slowed(pickle.dump, 0.3)
        monkeypatch.setattr(cache_mod, "pickle", slow_pickle)
        shard = _shard(3)
        mono = ArtifactCache(tmp_path / "mono")
        run_shard(shard, mono, want_dataset=False)
        for stage in ("workload", "schedule", "telemetry"):
            assert mono.load_meta(stage, stage_key(shard, stage))["seconds"] >= 0.3
        streamed = ArtifactCache(tmp_path / "streamed")
        stream_shard(shard, streamed, chunk_jobs=50)
        assert streamed.load_meta(PLAN_STAGE, plan_key(shard))["seconds"] >= 0.3


def _table_bytes(path) -> int:
    table = read_npz(path)
    return sum(table[n].nbytes for n in table.column_names)


class TestSamplesMemory:
    """Spilling and merging the samples table hold about a column, not
    the table: each pass peaks below the bytes of the table it writes."""

    @pytest.fixture(scope="class")
    def kept(self, tmp_path_factory):
        """A multi-chunk build with its shards kept, and the traced peak of
        writing each chunk's spill shard."""
        shard = ShardConfig("emmy", seed=3, num_nodes=120, num_users=20,
                            horizon_s=10 * 86400)
        cache = ArtifactCache(tmp_path_factory.mktemp("kept"))
        spill_peaks: dict[str, int] = {}
        real_store = ArtifactCache.store_tree

        def store(self, stage, key, build, meta):
            def measured(tmp_dir):
                extra, spill_peaks[key] = traced(build, tmp_dir)
                return extra

            return real_store(self, stage, key,
                              measured if stage == "chunk" else build, meta)

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ArtifactCache, "store_tree", store)
                stream_shard(shard, cache, chunk_jobs=400, keep_shards=True)
        finally:
            tracemalloc.stop()
        assert len(spill_peaks) > 1
        return cache, spill_peaks

    def test_compaction_peaks_below_the_merged_table(self, kept, tmp_path):
        cache, _ = kept
        dirs = [str(e.path) for e in cache.entries("chunk")]
        out = tmp_path / "samples.npz"
        tracemalloc.start()
        try:
            _, peak = traced(stream_mod._compact_samples, (dirs, str(out)))
        finally:
            tracemalloc.stop()
        assert peak < _table_bytes(out)

    def test_spill_peaks_below_the_chunk_table(self, kept):
        cache, spill_peaks = kept
        sizes = {
            e.key: _table_bytes(e.path / "samples.npz")
            for e in cache.entries("chunk") if (e.path / "samples.npz").is_file()
        }
        largest = max(sizes, key=sizes.get)
        assert spill_peaks[largest] < sizes[largest]
