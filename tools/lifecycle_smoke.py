#!/usr/bin/env python
"""End-to-end smoke test for the drift-aware model lifecycle.

Drives the whole loop from docs/LIFECYCLE.md over real HTTP against a
tiny scenario, asserting at each step:

1. ``POST /v1/feedback`` ingests observed outcomes and advances the
   prequential learner deterministically;
2. a shifted feedback window (inflated power, 20x node counts) forces
   the drift detector to latch and journal a ``drift`` event;
3. a candidate version registered from the drifted learner state is
   shadow-evaluated on live ``/v1/predict`` traffic without ever
   touching the live responses;
4. ``POST /v1/admin/promote`` flips the active version, records
   who/why plus the shadow evidence in the journal, and
   ``GET /v1/models`` agrees with ``GET /v1/admin/history`` about the
   lineage;
5. ``POST /v1/admin/rollback`` restores the previous version and the
   served predictions are **bit-identical** to the pre-promote ones.

Exit 0 on success, 1 on any failed assertion (the journal contents are
dumped to stderr and left on disk for CI to upload as an artifact).

Usage::

    python tools/lifecycle_smoke.py [--cache-dir .lifecycle-smoke]

``make lifecycle-smoke`` wraps this with the repo defaults.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

SPEC_KWARGS = dict(
    system="emmy", seed=3, num_nodes=24, num_users=10, horizon_days=2,
    max_traces=10,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", type=Path,
                        default=REPO_ROOT / ".lifecycle-smoke",
                        help="artifact cache + journal root (kept on "
                        "failure so CI can upload the journal)")
    args = parser.parse_args()

    from repro.incidents import ServedSystem
    from repro.pipeline import build_dataset
    from repro.spec import ScenarioSpec

    if args.cache_dir.exists():
        shutil.rmtree(args.cache_dir)

    spec = ScenarioSpec(**SPEC_KWARGS)
    ds = build_dataset(**spec.dataset_kwargs(), cache_dir=args.cache_dir)
    jobs = ds.jobs.sort_by("submit_s")
    records = [
        {
            "user": str(jobs["user"][i]),
            "nodes": int(jobs["nodes"][i]),
            "req_walltime_s": int(jobs["req_walltime_s"][i]),
            "power_w": float(jobs["pernode_power_w"][i]),
        }
        for i in range(min(len(jobs), 40))
    ]

    server = ServedSystem(
        spec, cache_dir=args.cache_dir, warm=("online",), lifecycle=True
    ).start()
    manager = server.service.lifecycle
    journal_path = manager.journal.path
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        mark = "ok  " if ok else "FAIL"
        print(f"  {mark} {what}")
        if not ok:
            failures.append(what)

    def http(method: str, path: str, body: dict | None = None):
        return server.request(method, path, payload=body)

    try:
        print(f"serving {spec.label} on {server.base_url}  "
              f"(journal: {journal_path})")

        print("step 1: feedback ingest")
        status, _, out = http("POST", "/v1/feedback",
                              {"jobs": records})
        check(status == 200 and out.get("accepted") == len(records),
              f"/v1/feedback accepted {len(records)} records")
        jobs_seen_once = out.get("learner_jobs")
        check(isinstance(jobs_seen_once, int) and jobs_seen_once > 0,
              "prequential learner advanced")

        print("step 2: forced drift")
        shifted = [
            {**r, "power_w": r["power_w"] * 10.0, "nodes": r["nodes"] * 20}
            for r in records
        ]
        status, _, out = http("POST", "/v1/feedback",
                              {"jobs": shifted})
        check(status == 200, "/v1/feedback took the shifted window")
        check(bool(out.get("drift")), "drift rules fired on the response")
        check(manager.drift_active("online"), "drift gauge latched")
        drift_events = [e for e in manager.history("online")
                        if e["event"] == "drift"]
        check(bool(drift_events), "journal recorded the drift event")

        print("step 3: candidate + shadow evaluation")
        candidate = manager.create_candidate(
            "online", who="smoke", why="post-drift learner state"
        )
        check(candidate >= 2, f"candidate registered as v{candidate}")
        live_jobs = [{k: r[k] for k in ("user", "nodes", "req_walltime_s")}
                     for r in records[:8]]
        predict_body = {"model": "online", "jobs": live_jobs}
        deadline = time.monotonic() + 30
        before = None
        while time.monotonic() < deadline:
            status, _, out = http("POST", "/v1/predict", predict_body)
            if status != 200:
                break
            before = out
            if (manager.shadow_report("online") or {}).get("n", 0) > 0:
                break
            time.sleep(0.2)
        check(before is not None and status == 200, "live /v1/predict answers")
        check(before is not None and before.get("version") == 1,
              "live responses served by v1 while candidate shadows")
        report = manager.shadow_report("online")
        check(bool(report and report["n"] > 0),
              f"shadow evaluated mirrored traffic ({report})")

        print("step 4: promote")
        status, _, out = http("POST", "/v1/admin/promote",
                              {"model": "online", "version": candidate,
                               "who": "smoke", "why": "drift + shadow"})
        check(status == 200 and out.get("active") == candidate,
              f"promote flipped active to v{candidate}")
        status, _, models = http("GET", "/v1/models")
        row = next(r for r in models["models"] if r["model"] == "online")
        status, _, hist = http("GET", "/v1/admin/history?model=online")
        promotes = [e for e in hist["events"] if e["event"] == "promote"]
        check(bool(promotes) and promotes[-1]["version"] == row["active"],
              "/v1/models and the audit trail agree on the active version")
        check(promotes[-1].get("who") == "smoke"
              and promotes[-1].get("why") == "drift + shadow",
              "journal records who/why")
        check((promotes[-1].get("evidence") or {}).get("n", 0) > 0,
              "journal carries the shadow evidence")
        status, _, after = http("POST", "/v1/predict", predict_body)
        check(status == 200 and after["version"] == candidate,
              f"post-promote responses served by v{candidate}")

        print("step 5: rollback bit-identity")
        status, _, out = http("POST", "/v1/admin/rollback",
                              {"model": "online", "who": "smoke",
                               "why": "smoke rollback"})
        check(status == 200 and out.get("active") == 1,
              "rollback restored v1")
        status, _, restored = http("POST", "/v1/predict", predict_body)
        check(status == 200
              and restored["predictions"] == before["predictions"],
              "rolled-back predictions are bit-identical to pre-promote")
        status, _, models = http("GET", "/v1/models")
        row = next(r for r in models["models"] if r["model"] == "online")
        check(row["active"] == 1 and row["candidate"] is None,
              "lineage shows v1 active and the candidate retired")
    finally:
        server.close()

    if failures:
        print(f"\nlifecycle-smoke: {len(failures)} failure(s)",
              file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print(f"\njournal ({journal_path}):", file=sys.stderr)
        if journal_path.is_file():
            sys.stderr.write(journal_path.read_text())
        return 1
    shutil.rmtree(args.cache_dir, ignore_errors=True)
    print("\nlifecycle-smoke: OK (feedback -> drift -> shadow -> "
          "promote -> rollback, audit trail consistent)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
