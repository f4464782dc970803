#!/usr/bin/env python
"""CI smoke runs, one table-driven entry point: ``tools/smoke.py <name>``.

Every smoke writes its artifacts under ``.smoke/<name>/`` (emptied when
the run starts and kept afterwards, so CI can upload it when a check
fails), prints one ``ok``/``FAIL`` line per check, and exits 0 only
when every check holds:

* ``stream`` — a chunked ``repro pipeline run --stream`` build is
  byte-identical to the monolithic build of the same shard (every
  dataset file except ``meta.json``); the streaming run's manifest is
  kept (docs/PIPELINE.md).
* ``gpu`` — the same byte-identity on the GPU system ``alex``, then
  both heterogeneous tracks (``gpu_power``, ``failures``) graded under
  loose ceilings and compared with the committed ``SCORECARD_gpu.json``;
  ``--update`` rewrites that file from the run instead
  (docs/SCENARIOS.md).
* ``lifecycle`` — feedback, forced drift, shadow evaluation, promote
  and a bit-identical rollback over HTTP; the lineage journal is kept
  (docs/LIFECYCLE.md).
* ``incidents`` — the ``control`` and ``cache-corrupt`` scenarios
  graded against the benchmark gates and audited, plus a rerun that
  must reproduce the bundle digest (docs/INCIDENTS.md).
* ``chaos`` — the chaos soak: ``soak_scenario`` arms every injection
  point under load; all of them must fire and the bundle must pass
  ``audit_bundle``. ``--requests-per-client`` lengthens the soak; the
  bundle's ``trace.jsonl`` summarizes with ``python -m repro obs
  summary`` (docs/FAULTS.md).

Usage::

    python tools/smoke.py stream
    python tools/smoke.py gpu [--update]
    python tools/smoke.py chaos [--requests-per-client 1000]

The ``make`` targets ``stream-smoke``, ``gpu-smoke``, ``gpu-baseline``,
``lifecycle-smoke``, ``incidents-smoke``, ``chaos-smoke`` and
``chaos-soak`` wrap it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SMOKE_ROOT = REPO_ROOT / ".smoke"
GPU_SCORECARD = REPO_ROOT / "SCORECARD_gpu.json"

Check = Callable[[bool, str], None]

# Sized so the shard spans several chunks at 2,000 jobs per chunk — a
# single-chunk run would not cross any chunk boundary.
STREAM_SHARD = dict(system="emmy", seed=3, num_nodes=64, num_users=32,
                    horizon_days=120, max_traces=32)
# Spans several 64-job chunks and clears both tracks' minimum row counts.
GPU_SHARD = dict(system="alex", seed=3, num_users=24, horizon_days=12,
                 max_traces=0)
GPU_REPEATS = 3
# Loose sanity ceilings: a broken feature path or a degenerate model
# blows well past these; seed-to-seed variation does not.
GPU_MEAN_ERR_CEILING = 0.60  # mean absolute percentage error
FAILURE_BRIER_CEILING = 0.25  # mean Brier score (chance at 50% = 0.25)
METRIC_TOLERANCE = 1e-6  # baseline comparison (bit-deterministic builds)

LIFECYCLE_SPEC = dict(system="emmy", seed=3, num_nodes=24, num_users=10,
                      horizon_days=2, max_traces=10)


# -- dataset builds ------------------------------------------------------


def _pipeline_run(cache_dir: Path, shard: dict, *, chunk_jobs: int = 0,
                  manifest: Path | None = None) -> None:
    """``repro pipeline run`` in a subprocess, streaming when chunked."""
    cmd = [sys.executable, "-m", "repro", "pipeline", "run",
           "--cache-dir", str(cache_dir)]
    for key, value in shard.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    if chunk_jobs:
        cmd += ["--stream", "--chunk-jobs", str(chunk_jobs)]
    if manifest is not None:
        cmd += ["--manifest", str(manifest)]
    subprocess.run(cmd, check=True,
                   env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})


def dataset_digest(cache_dir: Path) -> tuple[str, list[str]]:
    """SHA-256 over the single dataset entry's files (meta.json excluded)."""
    entries = [p for p in (cache_dir / "dataset").iterdir() if p.is_dir()]
    if len(entries) != 1:
        raise SystemExit(f"expected one dataset entry under {cache_dir}, "
                         f"found {len(entries)}")
    names: list[str] = []
    h = hashlib.sha256()
    for path in sorted(entries[0].iterdir()):
        if path.name == "meta.json":
            continue
        names.append(path.name)
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest(), names


def _byte_identity(work: Path, out: Path, check: Check, shard: dict,
                   chunk_jobs: int) -> tuple[str, list[str]]:
    """Build ``shard`` streamed and monolithic; the bytes must agree."""
    _pipeline_run(work / "stream", shard, chunk_jobs=chunk_jobs,
                  manifest=out / "stream-manifest.json")
    _pipeline_run(work / "mono", shard)
    stream_digest, stream_files = dataset_digest(work / "stream")
    mono_digest, mono_files = dataset_digest(work / "mono")
    check(stream_files == mono_files,
          f"same dataset files: streaming {stream_files}, "
          f"monolithic {mono_files}")
    check(stream_digest == mono_digest,
          f"byte-identical at chunk_jobs={chunk_jobs}: streaming "
          f"{stream_digest[:16]}…, monolithic {mono_digest[:16]}…")
    return mono_digest, mono_files


def smoke_stream(out: Path, check: Check, args: argparse.Namespace) -> None:
    with tempfile.TemporaryDirectory(prefix="smoke-stream-") as tmp:
        _byte_identity(Path(tmp), out, check, STREAM_SHARD, chunk_jobs=2000)


def _grade_tracks(cache_dir: Path) -> dict:
    """Both heterogeneous tracks on the cached GPU dataset."""
    from repro.analysis import run_failure_classification, run_gpu_prediction
    from repro.pipeline import build_jobs

    shard = GPU_SHARD
    jobs = build_jobs(
        system=shard["system"], seed=shard["seed"],
        num_users=shard["num_users"],
        horizon_s=int(shard["horizon_days"] * 86400),
        max_traces=shard["max_traces"], cache_dir=cache_dir,
    )
    report = {
        "n_jobs": len(jobs),
        "n_gpu_jobs": int((jobs["gpus"] > 0).sum()),
        "failure_rate": round(float(jobs["failed"].astype(float).mean()), 6),
        "tracks": {},
    }
    seed = shard["seed"]
    for track, results in (
        ("gpu_power", run_gpu_prediction(jobs, n_repeats=GPU_REPEATS, seed=seed)),
        ("failures", run_failure_classification(
            jobs, n_repeats=GPU_REPEATS, seed=seed)),
    ):
        report["tracks"][track] = {
            name: {"mean_err": round(float(r.summary.mean), 6),
                   "n": int(r.summary.n)}
            for name, r in results.items()
        }
    return report


def smoke_gpu(out: Path, check: Check, args: argparse.Namespace) -> None:
    with tempfile.TemporaryDirectory(prefix="smoke-gpu-") as tmp:
        digest, files = _byte_identity(Path(tmp), out, check, GPU_SHARD,
                                       chunk_jobs=64)
        report = _grade_tracks(Path(tmp) / "mono")
    report.update(system=GPU_SHARD["system"], seed=GPU_SHARD["seed"],
                  digest=digest, files=files)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out / "report.json").write_text(text)
    tracks = report["tracks"]
    print(f"[gpu] {report['n_jobs']} jobs ({report['n_gpu_jobs']} on "
          f"boards), failure rate {report['failure_rate']:.1%}")
    gpu_bdt = tracks["gpu_power"]["BDT"]["mean_err"]
    check(gpu_bdt <= GPU_MEAN_ERR_CEILING,
          f"gpu_power BDT mean err {gpu_bdt:.3f} <= {GPU_MEAN_ERR_CEILING}")
    fail_bdt = tracks["failures"]["BDT"]["mean_err"]
    check(fail_bdt <= FAILURE_BRIER_CEILING,
          f"failures BDT Brier {fail_bdt:.3f} <= {FAILURE_BRIER_CEILING}")
    if args.update:
        GPU_SCORECARD.write_text(text)
        print(f"[gpu] baseline rewritten at {GPU_SCORECARD}")
        return
    if not GPU_SCORECARD.exists():
        check(False, f"no committed {GPU_SCORECARD.name}; create it with --update")
        return
    baseline = json.loads(GPU_SCORECARD.read_text())
    check(baseline.get("digest") == digest,
          f"dataset digest {digest[:16]}… matches {GPU_SCORECARD.name} "
          f"({str(baseline.get('digest'))[:16]}…)")
    for track, models in sorted(baseline.get("tracks", {}).items()):
        for model, entry in sorted(models.items()):
            current = tracks.get(track, {}).get(model, {}).get("mean_err")
            check(current is not None
                  and abs(current - entry["mean_err"]) <= METRIC_TOLERANCE,
                  f"{track}/{model} mean err {current} matches the "
                  f"baseline {entry['mean_err']}")


# -- the served system ---------------------------------------------------


def smoke_lifecycle(out: Path, check: Check, args: argparse.Namespace) -> None:
    from repro.incidents import ServedSystem
    from repro.pipeline import build_dataset
    from repro.spec import ScenarioSpec

    cache_dir = out / "cache"
    spec = ScenarioSpec(**LIFECYCLE_SPEC)
    jobs = build_dataset(**spec.dataset_kwargs(), cache_dir=cache_dir).jobs
    jobs = jobs.sort_by("submit_s")
    records = [
        {
            "user": str(jobs["user"][i]),
            "nodes": int(jobs["nodes"][i]),
            "req_walltime_s": int(jobs["req_walltime_s"][i]),
            "power_w": float(jobs["pernode_power_w"][i]),
        }
        for i in range(min(len(jobs), 40))
    ]
    with ServedSystem(spec, cache_dir=cache_dir, warm=("online",),
                      lifecycle=True) as server:
        manager = server.service.lifecycle
        print(f"[lifecycle] serving {spec.label} on {server.base_url} "
              f"(journal: {manager.journal.path})")

        def http(method: str, path: str, body: dict | None = None):
            status, _, payload = server.request(method, path, payload=body)
            return status, payload

        # 1. Feedback ingest advances the prequential learner.
        status, reply = http("POST", "/v1/feedback", {"jobs": records})
        check(status == 200 and reply.get("accepted") == len(records),
              f"/v1/feedback accepted {len(records)} records")
        learned = reply.get("learner_jobs")
        check(isinstance(learned, int) and learned > 0,
              "prequential learner advanced")

        # 2. A shifted window (10x power, 20x nodes) forces drift.
        shifted = [{**r, "power_w": r["power_w"] * 10.0,
                    "nodes": r["nodes"] * 20} for r in records]
        status, reply = http("POST", "/v1/feedback", {"jobs": shifted})
        check(status == 200, "/v1/feedback took the shifted window")
        check(bool(reply.get("drift")), "drift rules fired on the response")
        check(manager.drift_active("online"), "drift gauge latched")
        check(any(e["event"] == "drift" for e in manager.history("online")),
              "journal recorded the drift event")

        # 3. A candidate shadows live traffic without touching answers.
        candidate = manager.create_candidate(
            "online", who="smoke", why="post-drift learner state")
        check(candidate >= 2, f"candidate registered as v{candidate}")
        live = {"model": "online", "jobs": [
            {k: r[k] for k in ("user", "nodes", "req_walltime_s")}
            for r in records[:8]
        ]}
        before = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            status, reply = http("POST", "/v1/predict", live)
            if status != 200:
                break
            before = reply
            if (manager.shadow_report("online") or {}).get("n", 0) > 0:
                break
            time.sleep(0.2)
        check(before is not None and status == 200, "live /v1/predict answers")
        check(before is not None and before.get("version") == 1,
              "live responses served by v1 while the candidate shadows")
        report = manager.shadow_report("online")
        check(bool(report and report["n"] > 0),
              f"shadow evaluated mirrored traffic ({report})")

        # 4. Promote, and the lineage agrees with the audit trail.
        status, reply = http("POST", "/v1/admin/promote", {
            "model": "online", "version": candidate,
            "who": "smoke", "why": "drift + shadow"})
        check(status == 200 and reply.get("active") == candidate,
              f"promote flipped active to v{candidate}")
        _, models = http("GET", "/v1/models")
        row = next(r for r in models["models"] if r["model"] == "online")
        _, hist = http("GET", "/v1/admin/history?model=online")
        promotes = [e for e in hist["events"] if e["event"] == "promote"]
        check(bool(promotes) and promotes[-1]["version"] == row["active"],
              "/v1/models and the audit trail agree on the active version")
        check(bool(promotes) and promotes[-1].get("who") == "smoke"
              and promotes[-1].get("why") == "drift + shadow",
              "journal records who/why")
        check(bool(promotes)
              and (promotes[-1].get("evidence") or {}).get("n", 0) > 0,
              "journal carries the shadow evidence")
        status, after = http("POST", "/v1/predict", live)
        check(status == 200 and after.get("version") == candidate,
              f"post-promote responses served by v{candidate}")

        # 5. Rollback restores v1, bit-identically.
        status, reply = http("POST", "/v1/admin/rollback", {
            "model": "online", "who": "smoke", "why": "smoke rollback"})
        check(status == 200 and reply.get("active") == 1,
              "rollback restored v1")
        status, restored = http("POST", "/v1/predict", live)
        check(status == 200 and before is not None
              and restored.get("predictions") == before["predictions"],
              "rolled-back predictions are bit-identical to pre-promote")
        _, models = http("GET", "/v1/models")
        row = next(r for r in models["models"] if r["model"] == "online")
        check(row["active"] == 1 and row["candidate"] is None,
              "lineage shows v1 active and the candidate retired")


def _audit(check: Check, bundle) -> None:
    from repro.incidents import audit_bundle

    problems = audit_bundle(bundle)
    check(not problems, f"{bundle.scenario_name}: audit_bundle "
          + ("; ".join(problems) if problems else "finds no problem"))


def smoke_incidents(out: Path, check: Check, args: argparse.Namespace) -> None:
    from repro.incidents import (
        IncidentBundle, Scorecard, get_detector, grade_answer, run_scenario,
    )

    detector = get_detector("rules")
    card = Scorecard(detector=detector.name)
    digests = {}
    for name in ("control", "cache-corrupt"):
        bundle = run_scenario(name, out, verbose=True)
        digests[name] = bundle.digest
        reloaded = IncidentBundle.load(bundle.path)
        check(reloaded.manifest == bundle.manifest
              and len(reloaded.events) == len(bundle.events)
              and len(reloaded.ledger) == len(bundle.ledger),
              f"{name}: bundle round-trips through disk")
        _audit(check, reloaded)
        card.add(grade_answer(reloaded, detector.analyze(reloaded)))
    print(card.summary())
    (out / "scorecard.json").write_text(
        json.dumps(card.to_dict(), indent=2, sort_keys=True) + "\n")
    check(card.passed, "grader gates (single-point recall, control FPs)")
    rerun = run_scenario("cache-corrupt", out / "rerun")
    check(rerun.digest == digests["cache-corrupt"],
          f"cache-corrupt: bundle digest deterministic across runs "
          f"({rerun.digest[:12]}…)")


def smoke_chaos(out: Path, check: Check, args: argparse.Namespace) -> None:
    from repro.faults import INJECTION_POINTS
    from repro.incidents import run_scenario, soak_scenario

    scenario = soak_scenario(requests_per_client=args.requests_per_client)
    bundle = run_scenario(scenario, out, verbose=True)
    requests = Counter(
        e["category"] for e in bundle.events if e["kind"] == "request")
    fired = bundle.ground_truth["fired_points"]
    print("[chaos] requests: " + "  ".join(
        f"{c}={n}" for c, n in sorted(requests.items())))
    print("[chaos] fires:    " + "  ".join(
        f"{p}={fired[p]['fires']}" for p in sorted(fired)))
    check(sorted(fired) == sorted(INJECTION_POINTS),
          f"{len(fired)} of {len(INJECTION_POINTS)} injection points fired")
    _audit(check, bundle)
    print(f"[chaos] trace: {bundle.path / 'trace.jsonl'}")


SMOKES = {
    "stream": (smoke_stream, "streamed build byte-identical to monolithic"),
    "gpu": (smoke_gpu, "GPU byte-identity + tracks vs SCORECARD_gpu.json"),
    "lifecycle": (smoke_lifecycle, "feedback, drift, shadow, promote, rollback"),
    "incidents": (smoke_incidents, "two graded, audited incident scenarios"),
    "chaos": (smoke_chaos, "the chaos soak through the incident orchestrator"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="name", required=True)
    for name, (_, summary) in SMOKES.items():
        sub.add_parser(name, help=summary)
    sub.choices["gpu"].add_argument(
        "--update", action="store_true",
        help=f"rewrite {GPU_SCORECARD.name} from this run instead of "
        "comparing against it")
    sub.choices["chaos"].add_argument(
        "--requests-per-client", type=int, default=24,
        help="requests each of the soak's four clients sends")
    args = parser.parse_args(argv)

    out = SMOKE_ROOT / args.name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(f"[{args.name}] {'ok' if ok else 'FAIL'}: {what}", flush=True)
        if not ok:
            failures.append(what)

    SMOKES[args.name][0](out, check, args)
    if failures:
        print(f"[{args.name}] FAILED: {len(failures)} check(s); artifacts "
              f"in {out}", file=sys.stderr)
        return 1
    print(f"[{args.name}] all checks passed; artifacts in {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
