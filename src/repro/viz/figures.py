"""Renderers that turn analysis results into the paper's figures.

One function per figure; :func:`render_all_figures` runs every analysis
on one or two datasets and writes the full SVG set to a directory (the
CLI's ``figures`` subcommand).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from repro.analysis import (
    app_power_comparison,
    cluster_variability,
    concentration_analysis,
    per_node_power_distribution,
    power_utilization,
    run_prediction,
    spatial_summary,
    split_analysis,
    system_utilization,
    temporal_summary,
    user_power_variability,
)
from repro.errors import AnalysisError
from repro.telemetry.dataset import JobDataset
from repro.viz.charts import Chart, pie_chart

__all__ = ["render_all_figures"]


def _utilization_chart(summary, title: str, ylabel: str) -> Chart:
    chart = Chart(title=title, xlabel="day", ylabel=ylabel)
    days = summary.daily_means()
    x = np.arange(len(days), dtype=float)
    if len(x) < 2:
        x = np.asarray([0.0, 1.0])
        days = np.repeat(days, 2)
    chart.area(x, days, label="used", color="#2e8540")
    chart.line(x, np.ones_like(days), label="provisioned", color="#c0392b")
    chart.ylim(0.0, 1.05)
    return chart


def fig1(dataset: JobDataset) -> str:
    util = system_utilization(dataset)
    return _utilization_chart(
        util, f"Fig 1 — system utilization ({dataset.spec.name})",
        "fraction of nodes active",
    ).render()


def fig2(dataset: JobDataset) -> str:
    power = power_utilization(dataset)
    return _utilization_chart(
        power, f"Fig 2 — power utilization ({dataset.spec.name})",
        "fraction of provisioned power",
    ).render()


def fig3(dataset: JobDataset) -> str:
    dist = per_node_power_distribution(dataset)
    chart = Chart(
        title=f"Fig 3 — per-node power PDF ({dataset.spec.name})",
        xlabel="per-node power (W)", ylabel="density",
    )
    chart.histogram(dist.pdf.edges, dist.pdf.density, label=dataset.spec.name)
    chart.vline(dist.mean_watts, label=f"mean {dist.mean_watts:.0f} W")
    chart.vline(dataset.spec.node_tdp_watts, color="#c0392b",
                label=f"TDP {dataset.spec.node_tdp_watts:.0f} W")
    return chart.render()


def fig4(datasets: Mapping[str, JobDataset]) -> str:
    comp = app_power_comparison(datasets)
    chart = Chart(
        title="Fig 4 — key applications across systems",
        xlabel="application", ylabel="mean per-node power (W)",
    )
    chart.grouped_bars(
        list(comp.apps),
        {system: comp.mean_watts[:, j] for j, system in enumerate(comp.systems)},
    )
    return chart.render()


def fig5(dataset: JobDataset) -> str:
    length = split_analysis(dataset, "length")
    size = split_analysis(dataset, "size")
    chart = Chart(
        title=f"Fig 5 — power by job length/size ({dataset.spec.name})",
        xlabel="median split", ylabel="per-node power (fraction of TDP)",
    )
    chart.grouped_bars(
        ["short/long", "small/large"],
        {
            "low half": [length.low.mean_tdp_fraction, size.low.mean_tdp_fraction],
            "high half": [length.high.mean_tdp_fraction, size.high.mean_tdp_fraction],
        },
        errors={
            "low half": [length.low.std_tdp_fraction, size.low.std_tdp_fraction],
            "high half": [length.high.std_tdp_fraction, size.high.std_tdp_fraction],
        },
    )
    return chart.render()


def fig7(dataset: JobDataset) -> str:
    t = temporal_summary(dataset)
    chart = Chart(
        title=f"Fig 7 — temporal variance CDFs ({dataset.spec.name})",
        xlabel="metric value", ylabel="fraction of jobs",
    )
    chart.cdf(t.overshoot_cdf.values, label="peak overshoot")
    chart.cdf(t.frac_time_cdf.values, label="runtime >10% above mean")
    chart.vline(0.10, label="10% threshold")
    chart.ylim(0.0, 1.0)
    return chart.render()


def fig9(dataset: JobDataset) -> str:
    s = spatial_summary(dataset)
    chart = Chart(
        title=f"Fig 9 — spatial spread CDFs ({dataset.spec.name})",
        xlabel="avg spatial spread (fraction of per-node power)",
        ylabel="fraction of jobs",
    )
    chart.cdf(s.spread_fraction_cdf.values, label="spread / power")
    chart.cdf(s.frac_time_cdf.values, label="runtime above avg spread")
    chart.ylim(0.0, 1.0)
    return chart.render()


def fig10(dataset: JobDataset) -> str:
    s = spatial_summary(dataset)
    chart = Chart(
        title=f"Fig 10 — node-energy imbalance ({dataset.spec.name})",
        xlabel="(max-min)/min node energy", ylabel="density",
    )
    chart.histogram(s.energy_imbalance_pdf.edges, s.energy_imbalance_pdf.density)
    chart.vline(0.15, label="15% difference")
    return chart.render()


def fig11(dataset: JobDataset) -> str:
    c = concentration_analysis(dataset)
    chart = Chart(
        title=f"Fig 11 — user concentration ({dataset.spec.name})",
        xlabel="fraction of users (heaviest first)",
        ylabel="cumulative share",
    )
    chart.line(*c.node_hours_curve, label="node-hours")
    chart.line(*c.energy_curve, label="energy")
    chart.vline(0.2, label="top 20%")
    chart.ylim(0.0, 1.0)
    return chart.render()


def fig12(dataset: JobDataset) -> str:
    v = user_power_variability(dataset)
    chart = Chart(
        title=f"Fig 12 — per-user power variability ({dataset.spec.name})",
        xlabel="std/mean of a user's per-node power", ylabel="fraction of users",
    )
    chart.cdf(v.cov_cdf.values, label=f"mean {v.mean_cov:.0%}")
    chart.ylim(0.0, 1.0)
    return chart.render()


def fig13(dataset: JobDataset, cluster_by: str = "nodes") -> str:
    c = cluster_variability(dataset, cluster_by)
    return pie_chart(
        list(c.bucket_labels),
        c.bucket_fractions,
        title=f"Fig 13 — (user, {cluster_by}) cluster σ ({dataset.spec.name})",
    )


def fig14(dataset: JobDataset, n_repeats: int = 3) -> str:
    results = run_prediction(dataset.jobs, n_repeats=n_repeats)
    chart = Chart(
        title=f"Fig 14 — prediction error CDFs ({dataset.spec.name})",
        xlabel="absolute prediction error", ylabel="fraction of predictions",
    )
    for name, result in results.items():
        chart.cdf(np.clip(result.errors, 0, 0.5), label=name)
    chart.vline(0.10, label="10% error")
    chart.ylim(0.0, 1.0)
    return chart.render()


def fig15(dataset: JobDataset, n_repeats: int = 3) -> str:
    from repro.ml import default_models

    results = run_prediction(
        dataset.jobs, models={"BDT": default_models()["BDT"]}, n_repeats=n_repeats
    )
    _, mean_errors = results["BDT"].per_user_mean_error()
    chart = Chart(
        title=f"Fig 15 — per-user BDT error ({dataset.spec.name})",
        xlabel="average absolute prediction error", ylabel="fraction of users",
    )
    chart.cdf(np.clip(mean_errors, 0, 0.5), label="BDT per-user mean")
    chart.vline(0.05, label="5% error")
    chart.ylim(0.0, 1.0)
    return chart.render()


def render_all_figures(
    datasets: Mapping[str, JobDataset], out_dir: str | Path, n_repeats: int = 3
) -> list[Path]:
    """Render every figure for the given dataset(s) into ``out_dir``.

    Single-system figures are rendered per dataset; Fig 4 requires at
    least two systems that each ran every key app, and is skipped
    otherwise (tiny scaled-down workloads may miss an app).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def save(name: str, svg: str) -> None:
        path = out_dir / f"{name}.svg"
        path.write_text(svg)
        written.append(path)

    for system, ds in datasets.items():
        save(f"fig01_utilization_{system}", fig1(ds))
        save(f"fig02_power_{system}", fig2(ds))
        save(f"fig03_pernode_pdf_{system}", fig3(ds))
        save(f"fig05_splits_{system}", fig5(ds))
        if ds.traces:
            save(f"fig07_temporal_{system}", fig7(ds))
            save(f"fig09_spatial_{system}", fig9(ds))
            save(f"fig10_imbalance_{system}", fig10(ds))
        save(f"fig11_concentration_{system}", fig11(ds))
        save(f"fig12_user_variability_{system}", fig12(ds))
        save(f"fig13_clusters_nodes_{system}", fig13(ds, "nodes"))
        save(f"fig13_clusters_walltime_{system}", fig13(ds, "walltime"))
        save(f"fig14_prediction_{system}", fig14(ds, n_repeats))
        save(f"fig15_user_error_{system}", fig15(ds, n_repeats))
    if len(datasets) >= 2:
        try:
            save("fig04_apps_cross_system", fig4(datasets))
        except AnalysisError:
            pass
    return written
