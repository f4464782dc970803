#!/usr/bin/env python
"""Quickstart: one ScenarioSpec driven through the whole facade.

A :class:`repro.ScenarioSpec` describes the scenario once; the
top-level facade does the rest — ``generate_dataset(spec)`` builds the
trace, ``evaluate(spec)`` runs the paper's prediction protocol, and
``create_server(spec)`` stands up the micro-batched prediction service
(docs/SERVICE.md). Runs in a few seconds the first time; repeat runs
with the same seed load from the :mod:`repro.pipeline` artifact cache
in milliseconds. For the paper-scale reproduction of each figure and
table, see the ``benchmarks/`` harness or
``python -m repro pipeline run-all``.

Usage::

    python examples/quickstart.py [seed]
"""

import json
import sys
import urllib.request

import repro


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 42

    # A 1/8-scale Emmy over two weeks; same generative model as the full
    # configuration, fewer nodes and users. The spec is the single
    # scenario description every layer below shares.
    spec = repro.ScenarioSpec(
        "emmy",
        seed=seed,
        num_nodes=70,
        num_users=40,
        horizon_days=14,
        max_traces=300,
    )

    # cached=True routes the build through the on-disk artifact cache —
    # byte-identical to the direct build, warm reruns are near-instant.
    dataset = repro.generate_dataset(spec, cached=True)
    print(f"generated {dataset.num_jobs} jobs on {dataset.spec.name} "
          f"({dataset.spec.num_nodes} nodes, {len(dataset.traces)} instrumented)")

    # Section 3 — system-level utilization and stranded power.
    util = repro.system_utilization(dataset)
    power = repro.power_utilization(dataset)
    print(f"\nsystem utilization: {util.mean:.1%} "
          f"(power: {power.mean:.1%}, stranded: {power.stranded_fraction:.1%})")

    # Section 4 — job-level power characteristics.
    dist = repro.per_node_power_distribution(dataset)
    print(f"per-node power: {dist.mean_watts:.0f} W "
          f"= {dist.mean_tdp_fraction:.0%} of TDP "
          f"(sigma/mean {dist.std_over_mean:.0%})")

    corr = repro.feature_power_correlations(dataset)
    print(f"Spearman power vs length {corr['job_length'].statistic:+.2f}, "
          f"vs size {corr['job_size'].statistic:+.2f}")

    temporal = repro.temporal_summary(dataset)
    spatial = repro.spatial_summary(dataset)
    print(f"temporal: peak only {temporal.mean_peak_overshoot:.0%} above mean; "
          f"spatial: node spread {spatial.mean_spread_fraction:.0%} of power")

    # Section 5 — users and prediction, via the facade.
    conc = repro.concentration_analysis(dataset)
    print(f"top 20% of users consume {conc.node_hours_share:.0%} node-hours "
          f"and {conc.energy_share:.0%} energy (overlap {conc.top_set_overlap:.0%})")

    results = repro.evaluate(spec, n_repeats=3)
    print("\npre-execution power prediction (user, nodes, walltime):")
    for name, result in results.items():
        s = result.summary
        print(f"  {name:5s} {s.frac_below_5pct:5.1%} of predictions <5% error, "
              f"{s.frac_below_10pct:5.1%} <10%")

    # Section 7 — the deployment story: predictions at job-submit time
    # from a live micro-batched HTTP service (see docs/SERVICE.md).
    server = repro.create_server(spec, warm=("BDT",))
    server.serve_in_background()
    job = {
        "user": str(dataset.jobs["user"][0]),
        "nodes": int(dataset.jobs["nodes"][0]),
        "req_walltime_s": int(dataset.jobs["req_walltime_s"][0]),
    }
    request = urllib.request.Request(
        f"http://{server.address}/v1/predict",
        data=json.dumps({"model": "BDT", "job": job}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        answer = json.load(response)
    print(f"\nserved prediction for {job['user']} on {job['nodes']} nodes: "
          f"{answer['predictions'][0]:.1f} W/node "
          f"({answer['latency_ms']:.1f} ms over HTTP)")
    server.close()


if __name__ == "__main__":
    main()
