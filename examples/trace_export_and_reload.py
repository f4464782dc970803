#!/usr/bin/env python
"""Export a trace in the open-data schema, reload it, analyze it cold.

Demonstrates the artifact workflow around the paper's Zenodo release:
the generator writes a job-level CSV in the documented schema; a
downstream consumer loads it with no access to the generator and runs
the same analyses. (This is exactly how the analysis layer would run on
the real Emmy/Meggie traces after a column rename.)

Usage::

    python examples/trace_export_and_reload.py [output_dir]
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import repro
from repro.telemetry.dataset import JobDataset
from repro.telemetry.schema import load_jobs_csv, save_jobs_csv
from repro.units import MINUTE


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)

    # Producer side: run the pipeline and publish the job-level table.
    dataset = repro.generate_dataset(
        "meggie", seed=3, num_nodes=90, num_users=35,
        horizon_s=14 * 86400, max_traces=0,
    )
    csv_path = out_dir / "meggie_jobs.csv"
    save_jobs_csv(dataset.jobs, csv_path)
    print(f"published {dataset.num_jobs} jobs to {csv_path} "
          f"({csv_path.stat().st_size / 1024:.0f} KiB)")

    # Consumer side: reload the CSV and rebuild a JobDataset (timelines
    # are reconstructed from the accounting columns alone).
    jobs = load_jobs_csv(csv_path)
    n_minutes = int(np.ceil(jobs["end_s"].max() / MINUTE)) + 1
    active = np.zeros(n_minutes, dtype=np.int64)
    job_power = np.zeros(n_minutes)
    for start, end, nodes, power in zip(
        jobs["start_s"] // MINUTE, jobs["end_s"] // MINUTE,
        jobs["nodes"], jobs["pernode_power_w"],
    ):
        active[start : max(start + 1, end)] += nodes
        job_power[start : max(start + 1, end)] += nodes * power
    reloaded = JobDataset(
        spec=dataset.spec,
        jobs=jobs,
        traces={},
        horizon_s=dataset.horizon_s,
        active_nodes=active,
        job_power_watts=job_power,
    )

    # The cold analyses agree with the producer's.
    for name, ds in (("producer", dataset), ("consumer", reloaded)):
        util = repro.system_utilization(ds)
        dist = repro.per_node_power_distribution(ds)
        conc = repro.concentration_analysis(ds)
        print(f"{name}: util {util.mean:.1%}, per-node power "
              f"{dist.mean_watts:.0f} W, top-20% share {conc.energy_share:.0%}")

    results = repro.run_prediction(reloaded.jobs, n_repeats=3, seed=0)
    best = results["BDT"].summary
    print(f"prediction from the exported CSV alone: "
          f"{best.frac_below_10pct:.0%} of BDT predictions within 10%")


if __name__ == "__main__":
    main()
