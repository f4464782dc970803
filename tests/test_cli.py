"""CLI smoke tests (argument parsing plus end-to-end subcommands)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--system", "meggie", "--out", "x.csv", "--num-nodes", "16"]
        )
        assert args.system == "meggie"
        assert args.num_nodes == 16

    def test_system_choices_track_the_cluster_registry(self):
        """The hardcoded (import-light) system names the CLI offers must
        never drift from repro.cluster.known_systems()."""
        from repro.cluster import known_systems
        from repro.spec import SYSTEM_NAMES

        assert list(SYSTEM_NAMES) == known_systems()

    def test_gpu_systems_are_accepted(self):
        args = build_parser().parse_args(
            ["generate", "--system", "alex", "--out", "x.npz"]
        )
        assert args.system == "alex"


SCALE = [
    "--num-nodes", "16", "--num-users", "8",
    "--horizon-days", "2", "--max-traces", "5", "--seed", "1",
]


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "emmy" in out and "meggie" in out and "560" in out

    def test_systems_list(self, capsys):
        assert main(["systems", "list"]) == 0
        out = capsys.readouterr().out
        assert "alex" in out and "woody" in out
        assert "ml" in out and "mixed" in out
        assert "656" in out  # alex: 82 nodes x 8 boards

    def test_systems_list_json(self, capsys):
        import json

        assert main(["systems", "list", "--json"]) == 0
        catalog = {e["system"]: e for e in json.loads(capsys.readouterr().out)}
        assert catalog["woody"]["gpu_nodes"] == 32
        assert catalog["woody"]["gpus_per_node"] == 4
        assert catalog["emmy"]["total_gpus"] == 0

    def test_generate_csv(self, tmp_path, capsys):
        out = tmp_path / "jobs.csv"
        assert main(["generate", "--out", str(out), *SCALE]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_generate_npz(self, tmp_path):
        out = tmp_path / "jobs.npz"
        assert main(["generate", "--out", str(out), *SCALE]) == 0
        from repro.telemetry.schema import load_jobs_npz

        assert len(load_jobs_npz(out)) > 0

    def test_generate_bad_suffix(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "jobs.txt"), *SCALE]) == 2

    def test_analyze(self, capsys):
        assert main(["analyze", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "power utilization" in out
        assert "Spearman" in out

    def test_predict(self, capsys):
        assert main(["predict", "--repeats", "2", *SCALE]) == 0
        out = capsys.readouterr().out
        assert "BDT" in out and "FLDA" in out

    def test_report(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(["report", "--out", str(out), "--no-prediction", *SCALE]) == 0
        text = out.read_text()
        assert text.startswith("# Power characterization")
        assert "## Users" in text

    def test_figures(self, tmp_path, capsys):
        out = tmp_path / "figs"
        assert main(["figures", "--out-dir", str(out), "--repeats", "2", *SCALE]) == 0
        assert len(list(out.glob("*.svg"))) >= 10


class TestPipelineCommands:
    def test_run_status_clean(self, tmp_path, capsys):
        cache = ["--cache-dir", str(tmp_path / "cache")]

        assert main(["pipeline", "run", *SCALE, *cache]) == 0
        out = capsys.readouterr().out
        assert "emmy/seed1" in out and "dataset" in out

        # Warm rerun reports every stage as a cache hit.
        assert main(["pipeline", "run", *SCALE, *cache]) == 0
        assert "hit" in capsys.readouterr().out

        assert main(["pipeline", "status", *cache]) == 0
        out = capsys.readouterr().out
        assert "dataset" in out
        assert "[emmy]" in out  # each entry names its system

        # Targeted clean: the build's one cached stage goes away.
        assert main(["pipeline", "clean", "--stage", "dataset", *cache]) == 0
        assert main(["pipeline", "status", *cache]) == 0
        out = capsys.readouterr().out
        assert "dataset" not in out and "(empty)" in out

    def test_status_and_clean_handle_damaged_entries(self, tmp_path, capsys):
        """Truncated or missing meta sidecars must not crash bookkeeping."""
        from repro.pipeline import ArtifactCache
        from repro.pipeline.cache import META_NAME, PAYLOAD_NAME

        root = tmp_path / "cache"
        cache_args = ["--cache-dir", str(root)]
        cache = ArtifactCache(root)
        cache.store_pickle("model", "a" * 64, {"w": 1}, {"n_items": 1})
        cache.store_pickle("model", "b" * 64, {"w": 2}, {"n_items": 1})
        # One truncated sidecar, one entry missing its sidecar entirely.
        (cache.entry_dir("model", "a" * 64) / META_NAME).write_text("{trunc")
        orphan = cache.entry_dir("model", "c" * 64)
        orphan.mkdir(parents=True)
        (orphan / PAYLOAD_NAME).write_bytes(b"\x80\x04 garbage")

        assert main(["pipeline", "status", *cache_args]) == 0
        out = capsys.readouterr().out
        assert out.count("DAMAGED") == 2
        assert "pipeline clean --stage model" in out

        # Clean sweeps the damaged entries along with the healthy one.
        assert main(["pipeline", "clean", "--stage", "model", *cache_args]) == 0
        assert "removed 3" in capsys.readouterr().out
        assert main(["pipeline", "status", *cache_args]) == 0
        out = capsys.readouterr().out
        assert "DAMAGED" not in out and "(empty)" in out

    def test_serve_fault_plan_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--fault-plan", str(tmp_path / "plan.json")]
        )
        assert args.fault_plan == tmp_path / "plan.json"
        assert build_parser().parse_args(["serve"]).fault_plan is None

    def test_serve_refuses_a_fault_plan_for_a_worker_pool(
        self, tmp_path, monkeypatch, capsys
    ):
        """The plan arms the parent process, which spawned workers never
        see: the command must stop before it builds any worker."""
        import repro.serve.forking as forking
        from repro.faults import FaultPlan, FaultRule

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was built")

        monkeypatch.setattr(forking, "ForkingServer", no_pool)
        plan = FaultPlan(seed=1, rules=(FaultRule("cache.read", rate=1.0),))
        path = plan.save(tmp_path / "plan.json")
        argv = ["serve", "--workers", "2", "--port", "0", "--fault-plan", str(path)]
        assert main(argv) == 2
        assert "--workers 1" in capsys.readouterr().err

    def test_clean_requires_filter_or_all(self, tmp_path, capsys):
        assert main(["pipeline", "clean", "--cache-dir", str(tmp_path)]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_writes_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.json"
        assert main([
            "pipeline", "run", *SCALE,
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest),
        ]) == 0
        from repro.pipeline import RunManifest

        loaded = RunManifest.load(manifest)
        assert loaded.n_jobs > 0 and loaded.stages_total >= 4
