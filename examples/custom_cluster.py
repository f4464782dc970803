#!/usr/bin/env python
"""Model your own cluster: a custom SystemSpec end to end.

The substrates are not hard-wired to Emmy/Meggie. This example defines a
fictional 96-node EPYC-style partition, gives its applications power
levels, generates a month of jobs, schedules and samples them, and runs
the characterization — the workflow for anyone adapting the library to
their site.

Usage::

    python examples/custom_cluster.py
"""

import dataclasses

import numpy as np

import repro
from repro.cluster import Cluster, SystemSpec
from repro.scheduler import simulate
from repro.telemetry.dataset import assemble
from repro.workload import CATALOG, WorkloadGenerator, default_params

CUSTOM = SystemSpec(
    name="ruby",
    num_nodes=96,
    node_tdp_watts=360.0,
    processor="2x fictional EPYC-class 64c",
    microarchitecture="Zen-ish",
    process_node_nm=7,
    sockets_per_node=2,
    cores_per_socket=64,
    memory_gb=256,
    memory_type="DDR4-3200",
    interconnect="HDR InfiniBand",
    topology="fat-tree",
    batch_system="slurm",
    smt_enabled=True,
    turbo_enabled=True,
    linpack_tflops=300.0,
    linpack_power_kw=33.0,
    inflow_temperature_c=(24.0, 26.0),
    dram_power_fraction=0.22,
)


def main() -> None:
    # Give every catalog application a power level on the new machine.
    # (A denser node runs the same codes at a higher fraction of TDP.)
    for app in CATALOG:
        app.power_fraction["ruby"] = min(
            0.95, app.power_fraction["emmy"] * 1.05
        )

    cluster = Cluster(CUSTOM, seed=1)
    print(f"cluster: {cluster!r}, provisioned {CUSTOM.total_tdp_watts / 1e3:.0f} kW")

    # Reuse Emmy's workload shape but point it at the new system.
    params = dataclasses.replace(
        default_params("emmy", num_users=30, horizon_s=30 * 86400),
        system="ruby",
        nodes_median=3.0,
        max_nodes=24,
    )
    generator = WorkloadGenerator(params, cluster.num_nodes, seed=1)
    jobs = generator.generate()
    scheduled = simulate(jobs, cluster.num_nodes)
    dataset = assemble(cluster, scheduled, params.horizon_s, seed=1, max_traces=200)

    util = repro.system_utilization(dataset)
    power = repro.power_utilization(dataset)
    dist = repro.per_node_power_distribution(dataset)
    print(f"jobs: {dataset.num_jobs}, utilization {util.mean:.0%}, "
          f"power {power.mean:.0%} of budget")
    print(f"per-node power {dist.mean_watts:.0f} W "
          f"({dist.mean_tdp_fraction:.0%} of the {CUSTOM.node_tdp_watts:.0f} W TDP)")
    print(f"stranded power on the custom machine: {power.stranded_fraction:.0%} "
          f"({power.stranded_fraction * CUSTOM.total_tdp_watts / 1e3:.0f} kW)")

    results = repro.run_prediction(dataset.jobs, n_repeats=3, seed=1)
    print("prediction transfers to the new machine:",
          ", ".join(f"{k} {v.summary.frac_below_10pct:.0%}<10%" for k, v in results.items()))


if __name__ == "__main__":
    main()
