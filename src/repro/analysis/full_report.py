"""One-call markdown characterization report.

:func:`full_report` runs every analysis on a dataset and renders the
result as a self-contained markdown document — the artifact an operator
would circulate after a characterization campaign. The CLI's ``report``
subcommand writes it to disk.
"""

from __future__ import annotations

from repro.analysis.job_level import (
    feature_power_correlations,
    per_node_power_distribution,
    split_analysis,
)
from repro.analysis.spatial import spatial_summary
from repro.analysis.system_level import power_utilization, system_utilization
from repro.analysis.temporal import temporal_summary
from repro.analysis.user_level import (
    cluster_variability,
    concentration_analysis,
    user_power_variability,
)
from repro.errors import AnalysisError
from repro.frames import Table
from repro.telemetry.dataset import JobDataset

__all__ = ["full_report"]


def _pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def full_report(
    dataset: JobDataset,
    include_prediction: bool = True,
    n_repeats: int = 3,
) -> str:
    """Render the complete characterization of one dataset as markdown."""
    if dataset.num_jobs == 0:
        raise AnalysisError("cannot report on an empty dataset")
    spec = dataset.spec
    lines: list[str] = []
    add = lines.append

    add(f"# Power characterization — {spec.name}")
    add("")
    add(f"- **System**: {spec.num_nodes} nodes × {spec.processor} "
        f"({spec.microarchitecture}, {spec.process_node_nm} nm), "
        f"{spec.node_tdp_watts:.0f} W node TDP, {spec.batch_system}")
    add(f"- **Window**: {dataset.horizon_s / 86400:.0f} days, "
        f"{dataset.num_jobs} jobs, {len(dataset.traces)} instrumented")
    add("")

    util = system_utilization(dataset)
    power = power_utilization(dataset)
    add("## System level (stranded power)")
    add("")
    add(f"| metric | value |")
    add(f"|---|---|")
    add(f"| mean system utilization | {_pct(util.mean)} |")
    add(f"| mean power utilization | {_pct(power.mean)} |")
    add(f"| peak power utilization | {_pct(power.peak)} |")
    add(f"| stranded power | {_pct(power.stranded_fraction)} of "
        f"{spec.total_tdp_watts / 1e3:.0f} kW provisioned |")
    add("")

    dist = per_node_power_distribution(dataset)
    corr = feature_power_correlations(dataset)
    length = split_analysis(dataset, "length")
    size = split_analysis(dataset, "size")
    add("## Job level")
    add("")
    add(f"Per-node power: **{dist.mean_watts:.0f} W** "
        f"({_pct(dist.mean_tdp_fraction)} of TDP), σ {dist.std_watts:.0f} W "
        f"({_pct(dist.std_over_mean)} of the mean), across {dist.n_jobs} jobs.")
    add("")
    add(f"Spearman correlations with per-node power: runtime "
        f"{corr['job_length'].statistic:+.2f} "
        f"(p={corr['job_length'].pvalue:.1g}), node count "
        f"{corr['job_size'].statistic:+.2f} (p={corr['job_size'].pvalue:.1g}).")
    add("")
    add(f"Median splits (fraction of TDP): short {_pct(length.low.mean_tdp_fraction)} "
        f"→ long {_pct(length.high.mean_tdp_fraction)}; "
        f"small {_pct(size.low.mean_tdp_fraction)} "
        f"→ large {_pct(size.high.mean_tdp_fraction)}.")
    add("")

    if dataset.traces:
        t = temporal_summary(dataset)
        s = spatial_summary(dataset)
        add("## Dynamic behavior (instrumented subset)")
        add("")
        add(f"- Temporal: σ_t/µ {_pct(t.mean_temporal_cov)} on average; peak "
            f"only {_pct(t.mean_peak_overshoot)} above the mean; "
            f"{_pct(t.frac_jobs_never_above)} of jobs never exceed mean+10%.")
        add(f"- Spatial: node spread {s.mean_spread_watts:.0f} W "
            f"({_pct(s.mean_spread_fraction)} of per-node power); "
            f"{_pct(s.frac_jobs_energy_imbalance_over_15pct)} of jobs show "
            f">15% node-energy imbalance.")
        add("")

    conc = concentration_analysis(dataset)
    var = user_power_variability(dataset)
    clusters = cluster_variability(dataset, "nodes")
    add("## Users")
    add("")
    add(f"- Top 20% of {conc.n_users} users: {_pct(conc.node_hours_share)} of "
        f"node-hours, {_pct(conc.energy_share)} of energy "
        f"(top-set overlap {_pct(conc.top_set_overlap)}).")
    add(f"- Per-user power variability: mean σ/µ {_pct(var.mean_cov)}; after "
        f"clustering by (user, nodes) it collapses to "
        f"{_pct(clusters.mean_cov)} — {_pct(clusters.frac_below_10pct)} of "
        f"clusters sit below 10%.")
    add("")

    if include_prediction:
        from repro.analysis.prediction import run_prediction

        results = run_prediction(dataset.jobs, n_repeats=n_repeats)
        add("## Pre-execution power prediction")
        add("")
        add("| model | mean err | <5% err | <10% err |")
        add("|---|---|---|---|")
        for name, result in results.items():
            s = result.summary
            add(f"| {name} | {_pct(s.mean)} | {_pct(s.frac_below_5pct)} | "
                f"{_pct(s.frac_below_10pct)} |")
        add("")
        lines.extend(_track_sections(dataset.jobs, n_repeats))

    return "\n".join(lines)


def _track_sections(jobs: Table, n_repeats: int) -> list[str]:
    """Extra evaluation-track tables for systems that model them.

    A CPU-only dataset (emmy/meggie) has neither GPU nor exit-state
    columns, so its report is unchanged; heterogeneous systems
    (docs/SCENARIOS.md) gain one table per applicable track.
    """
    from repro.analysis.prediction import (
        run_failure_classification,
        run_gpu_prediction,
    )

    lines: list[str] = []
    add = lines.append
    if "gpu_power_w" in jobs:
        try:
            results = run_gpu_prediction(jobs, n_repeats=n_repeats)
        except AnalysisError:
            results = None  # too few GPU jobs to split; skip the table
        if results:
            add("## GPU board-power prediction (gpu_power track)")
            add("")
            n_gpu = int((jobs["gpus"] > 0).sum())
            add(f"Over the {n_gpu} jobs holding boards; features add the "
                "allocated board count.")
            add("")
            add("| model | mean err | <5% err | <10% err |")
            add("|---|---|---|---|")
            for name, result in results.items():
                s = result.summary
                add(f"| {name} | {_pct(s.mean)} | {_pct(s.frac_below_5pct)} "
                    f"| {_pct(s.frac_below_10pct)} |")
            add("")
    if "failed" in jobs:
        try:
            results = run_failure_classification(jobs, n_repeats=n_repeats)
        except AnalysisError:
            results = None
        if results:
            base_rate = float(jobs["failed"].astype(float).mean())
            add("## Failure-probability classification (failures track)")
            add("")
            add(f"Base failure rate {_pct(base_rate)}; errors are Brier "
                "(squared-probability) scores — lower is better, and "
                f"always predicting the base rate scores "
                f"{base_rate * (1 - base_rate):.4f}.")
            add("")
            add("| model | mean Brier |")
            add("|---|---|")
            for name, result in results.items():
                add(f"| {name} | {result.summary.mean:.4f} |")
            add("")
    return lines
