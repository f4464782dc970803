#!/usr/bin/env python
"""Open-loop load generator for the prediction serve stack.

Stands up the pre-forked :class:`repro.serve.ForkingServer` (N
``SO_REUSEPORT`` worker processes on one ephemeral port), then offers
load at a **constant scheduled rate** over persistent connections — the
wrk2 idiom. Request *i* is due at ``start + i/rate`` regardless of how
the previous request fared, and its latency is measured **from the
scheduled send time**, so a stalled server shows up as growing latency
instead of silently lowering the offered rate (the closed-loop
"coordinated omission" artifact the previous harness suffered from).

Each request is an NDJSON ``POST /v1/predict/bulk`` carrying ``--bulk``
jobs (one JSON object per line; ``--bulk 1`` switches to single-job
``POST /v1/predict``). Every response value is compared bit-for-bit
against a locally fitted :func:`repro.analysis.prediction` BDT oracle —
the throughput number is only reported if every prediction in the run
is exactly what ``evaluate_models`` would have produced.

Reported: sustained predictions/s over the timed window, achieved vs
offered request rate, latency p50/p90/p99/max from scheduled time, and
a fixed-bucket latency histogram (written into the result JSON so CI
can upload it as an artifact on failure).

Usage::

    python tools/serve_bench.py                 # measure, print table
    python tools/serve_bench.py --update        # rewrite BENCH_serve.json
    python tools/serve_bench.py --check         # CI gate (exit 1 on
                                                # regression or below
                                                # the absolute floor)

``make serve-bench`` wraps ``--update``; ``make serve-bench-check``
wraps ``--check``. ``--check`` gates twice: >25 % drop against the
committed ``BENCH_serve.json`` fails, and so does anything under
``--min-rate`` predictions/s (default 1,670 — 10x the pre-rework
single-process baseline of 166.74). See docs/PERFORMANCE.md for the
methodology.
"""

from __future__ import annotations

import argparse
import http.client
import json
import statistics
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tools"))

from bench_paths import bench_cache_dir  # noqa: E402
from perf_check import gate_throughput, load_baseline  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "BENCH_serve.json"
BENCH_NAME = "serve-bench"
# Pre-rework closed-loop baseline (BENCH_serve.json before the forked
# stack): 166.74 predictions/s. The acceptance floor is 10x that.
PRE_REWORK_RATE = 166.74
DEFAULT_MIN_RATE = 1670.0
HISTOGRAM_EDGES_MS = (
    0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0
)


def _percentile(sorted_values: list[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[idx]


def _histogram_ms(latencies_s: list[float]) -> dict[str, int]:
    """Fixed-bucket cumulative-free latency histogram, keys in ms."""
    counts = [0] * (len(HISTOGRAM_EDGES_MS) + 1)
    for lat in latencies_s:
        ms = lat * 1e3
        for i, edge in enumerate(HISTOGRAM_EDGES_MS):
            if ms <= edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"le_{edge:g}" for edge in HISTOGRAM_EDGES_MS] + ["inf"]
    return dict(zip(labels, counts))


def _request_pool(dataset, bulk: int, limit: int = 512) -> list[dict]:
    """Pre-encoded request bodies + expected predictions from the oracle.

    Every pool entry carries the exact bytes a generator connection will
    POST and the bit-exact predictions the oracle produced for those
    jobs, so response verification is a float-equality comparison on the
    hot path's output.
    """
    from repro.analysis.prediction import default_models
    from repro.ml.pipeline import fit_predictor

    jobs = dataset.jobs
    n = min(limit, len(jobs))
    records = [
        {
            "user": str(jobs["user"][i]),
            "nodes": int(jobs["nodes"][i]),
            "req_walltime_s": int(jobs["req_walltime_s"][i]),
        }
        for i in range(n)
    ]
    # The oracle: the same fit the registry performs for this scenario.
    # evaluate_models uses fit_predictor with default_models() too, so
    # matching this fit bit-for-bit is matching the paper pipeline.
    oracle = fit_predictor(jobs, default_models()["BDT"], model_name="BDT")
    expected = oracle.predict_records(records)

    pool = []
    for start in range(0, n, bulk):
        chunk = records[start:start + bulk]
        if bulk == 1:
            body = json.dumps({"model": "BDT", "job": chunk[0]}).encode()
        else:
            body = b"\n".join(json.dumps(r).encode() for r in chunk)
        pool.append({
            "body": body,
            "expected": [float(v) for v in expected[start:start + bulk]],
        })
    return pool


class _OpenLoopConnection(threading.Thread):
    """One persistent connection replaying its slice of the schedule.

    ``sends`` is a list of ``(due_time_offset_s, pool_index)`` pairs;
    the thread sleeps until each due time, fires the request, and logs
    latency from the *due* time — if the previous response was late,
    the backlog shows up as latency, never as a lower offered rate.
    """

    def __init__(self, host, port, path, pool, sends, start_at, bulk):
        super().__init__(daemon=True)
        self.host, self.port, self.path = host, port, path
        self.pool, self.sends, self.start_at = pool, sends, start_at
        self.bulk = bulk
        self.latencies: list[float] = []
        self.predictions = 0
        self.failures: list[str] = []
        self.mismatches = 0

    def run(self) -> None:
        headers = {"Content-Type": (
            "application/x-ndjson" if self.bulk > 1 else "application/json"
        )}
        conn = http.client.HTTPConnection(self.host, self.port, timeout=30)
        for offset, pool_idx in self.sends:
            due = self.start_at + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            entry = self.pool[pool_idx]
            try:
                conn.request("POST", self.path, body=entry["body"],
                             headers=headers)
                response = conn.getresponse()
                data = response.read()
                if response.status != 200:
                    self.failures.append(f"HTTP {response.status}: "
                                         f"{data[:120]!r}")
                    continue
            except OSError as exc:
                self.failures.append(str(exc))
                conn.close()
                conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=30
                )
                continue
            # Latency from the scheduled time: includes any backlog this
            # connection accumulated (coordinated-omission correction).
            self.latencies.append(time.perf_counter() - due)
            if self.bulk > 1:
                values = [float(line) for line in data.split()]
            else:
                values = [float(p) for p in json.loads(data)["predictions"]]
            self.predictions += len(values)
            if values != entry["expected"]:
                self.mismatches += 1
        conn.close()


def _run_open_loop(host, port, pool, *, rate, duration, connections, bulk):
    """Offer ``rate`` requests/s for ``duration`` s across connections."""
    path = "/v1/predict/bulk?model=BDT" if bulk > 1 else "/v1/predict"
    n_requests = max(1, int(rate * duration))
    per_conn: list[list[tuple[float, int]]] = [[] for _ in range(connections)]
    for i in range(n_requests):
        per_conn[i % connections].append((i / rate, i % len(pool)))

    start_at = time.perf_counter() + 0.25  # let every thread reach the loop
    threads = [
        _OpenLoopConnection(host, port, path, pool, sends, start_at, bulk)
        for sends in per_conn if sends
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start_at
    latencies = sorted(lat for t in threads for lat in t.latencies)
    return {
        "latencies": latencies,
        "predictions": sum(t.predictions for t in threads),
        "requests_done": sum(len(t.latencies) for t in threads),
        "requests_offered": n_requests,
        "elapsed": elapsed,
        "failures": [f for t in threads for f in t.failures],
        "mismatches": sum(t.mismatches for t in threads),
    }


def measure(args: argparse.Namespace) -> dict:
    """Warm-up + one timed open-loop window against a fresh worker pool."""
    from repro.pipeline import build_dataset
    from repro.serve import ForkingServer
    from repro.spec import ScenarioSpec

    spec = ScenarioSpec(
        system=args.system, seed=args.seed, num_nodes=args.num_nodes,
        num_users=args.num_users, horizon_days=args.horizon_days,
        max_traces=args.max_traces,
    )
    dataset = build_dataset(**spec.dataset_kwargs(), cache_dir=args.cache_dir)
    pool = _request_pool(dataset, bulk=args.bulk)

    t0 = time.perf_counter()
    server = ForkingServer(
        spec, workers=args.workers, cache_dir=args.cache_dir,
        max_batch=args.max_batch, max_wait_ms=args.max_wait_ms,
        warm=("BDT",),
    ).start()
    warm_seconds = time.perf_counter() - t0
    host, port = server.host, server.port

    if not args.quiet:
        print(f"{BENCH_NAME}: {spec.label} pool of {args.workers} workers "
              f"up in {warm_seconds:.2f}s on {server.address}, "
              f"{len(pool)} request bodies x {args.bulk} jobs")

    try:
        # Warm-up at 1/4 rate: connections, per-worker model caches, and
        # first-batch effects stay out of the timed window.
        _run_open_loop(
            host, port, pool, rate=max(args.rate / 4, 1.0),
            duration=min(2.0, args.duration), connections=args.connections,
            bulk=args.bulk,
        )
        run = _run_open_loop(
            host, port, pool, rate=args.rate, duration=args.duration,
            connections=args.connections, bulk=args.bulk,
        )
    finally:
        server.close()

    if run["failures"]:
        raise SystemExit(f"{BENCH_NAME}: {len(run['failures'])} failed "
                         f"requests; first: {run['failures'][0]}")
    if run["mismatches"]:
        raise SystemExit(
            f"{BENCH_NAME}: {run['mismatches']} responses were NOT "
            "bit-identical to the evaluate_models oracle — serving stack "
            "broke the identity contract"
        )
    latencies = run["latencies"]
    return {
        "config": {
            "system": args.system, "seed": args.seed,
            "num_nodes": args.num_nodes, "num_users": args.num_users,
            "horizon_days": args.horizon_days, "max_traces": args.max_traces,
            "workers": args.workers, "connections": args.connections,
            "rate_rps": args.rate, "duration_s": args.duration,
            "bulk": args.bulk, "max_batch": args.max_batch,
            "max_wait_ms": args.max_wait_ms, "model": "BDT",
        },
        "methodology": "open-loop constant-rate (latency from scheduled send)",
        "n_requests": run["requests_done"],
        "requests_offered": run["requests_offered"],
        "n_predictions": run["predictions"],
        "wall_seconds": round(run["elapsed"], 4),
        "predictions_per_second": round(
            run["predictions"] / run["elapsed"], 2
        ),
        "achieved_request_rate": round(
            run["requests_done"] / run["elapsed"], 2
        ),
        "offered_request_rate": round(args.rate, 2),
        "latency_ms": {
            "mean": round(statistics.fmean(latencies) * 1e3, 3),
            "p50": round(_percentile(latencies, 0.50) * 1e3, 3),
            "p90": round(_percentile(latencies, 0.90) * 1e3, 3),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 3),
            "max": round(latencies[-1] * 1e3, 3),
        },
        "latency_histogram_ms": _histogram_ms(latencies),
        "bit_identity": {
            "checked_responses": run["requests_done"],
            "mismatches": 0,
        },
        "pre_rework_baseline": {
            "predictions_per_second": PRE_REWORK_RATE,
            "speedup": round(
                run["predictions"] / run["elapsed"] / PRE_REWORK_RATE, 1
            ),
        },
        "warm_seconds": round(warm_seconds, 4),
    }


def print_report(result: dict) -> None:
    cfg = result["config"]
    lat = result["latency_ms"]
    print(f"\n{cfg['system']} seed {cfg['seed']}: {cfg['workers']} workers, "
          f"{cfg['connections']} connections, offered "
          f"{result['offered_request_rate']:,.0f} req/s x {cfg['bulk']} jobs "
          f"for {cfg['duration_s']:.0f}s")
    print(f"  throughput {result['predictions_per_second']:,.0f} "
          f"predictions/s over {result['wall_seconds']:.2f}s "
          f"({result['pre_rework_baseline']['speedup']:.1f}x pre-rework)")
    print(f"  requests   {result['achieved_request_rate']:,.0f} req/s "
          f"achieved vs {result['offered_request_rate']:,.0f} offered")
    print(f"  latency    p50 {lat['p50']:.2f}  p90 {lat['p90']:.2f}  "
          f"p99 {lat['p99']:.2f}  max {lat['max']:.2f} ms "
          f"(from scheduled send)")
    print(f"  identity   {result['bit_identity']['checked_responses']} "
          f"responses bit-identical to the evaluate_models oracle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--system", default="emmy", choices=("emmy", "meggie"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--num-nodes", type=int, default=60)
    parser.add_argument("--num-users", type=int, default=30)
    parser.add_argument("--horizon-days", type=float, default=10.0)
    parser.add_argument("--max-traces", type=int, default=50)
    parser.add_argument("--workers", type=int, default=2,
                        help="serve worker processes (SO_REUSEPORT pool)")
    parser.add_argument("--connections", type=int, default=8,
                        help="persistent load-generator connections")
    parser.add_argument("--rate", type=float, default=165.0,
                        help="offered request rate (req/s), open-loop")
    parser.add_argument("--duration", type=float, default=8.0,
                        help="timed window length in seconds")
    parser.add_argument("--bulk", type=int, default=64,
                        help="jobs per request; >1 uses NDJSON "
                        "/v1/predict/bulk, 1 uses /v1/predict")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-ms", type=float, default=2.0)
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="artifact cache for the dataset + trained model "
                        "(default: the bench scratch cache, see "
                        "tools/bench_paths.py — never the repo tree)")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional throughput drop for --check")
    parser.add_argument("--min-rate", type=float, default=DEFAULT_MIN_RATE,
                        help="absolute predictions/s floor for --check "
                        "(default: 10x the pre-rework 166.74/s)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON path (default: BENCH_serve.json)")
    parser.add_argument("--check", action="store_true",
                        help="compare against the baseline; exit 1 on "
                        "regression or below --min-rate")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with this measurement")
    parser.add_argument("--json", type=Path, default=None,
                        help="also write the measurement JSON here")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = bench_cache_dir()
    result = measure(args)
    if not args.quiet:
        print_report(result)
    if args.json is not None:
        args.json.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if args.update:
        args.baseline.write_text(
            json.dumps(result, indent=2, sort_keys=True) + "\n"
        )
        print(f"{BENCH_NAME}: wrote {args.baseline}")
    if args.check:
        rate = result["predictions_per_second"]
        if rate < args.min_rate:
            print(f"{BENCH_NAME}: {rate:,.0f} predictions/s is below the "
                  f"absolute floor of {args.min_rate:,.0f}", file=sys.stderr)
            return 1
        baseline = load_baseline(result, args.baseline, name=BENCH_NAME)
        if baseline is None:
            return 2
        ok = gate_throughput(
            rate,
            baseline["predictions_per_second"],
            args.tolerance,
            unit="predictions/s",
            name=BENCH_NAME,
        )
        if not ok:
            base_p99 = baseline["latency_ms"]["p99"]
            print(f"{BENCH_NAME}: p99 {result['latency_ms']['p99']:.2f} ms "
                  f"vs baseline {base_p99:.2f} ms", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
