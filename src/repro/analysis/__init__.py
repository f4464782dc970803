"""The paper's analyses (Sections 3–5), one module per section theme.

Every public function consumes a :class:`~repro.telemetry.dataset.JobDataset`
(or several) and returns plain result dataclasses / tables — the same
rows and series the paper's figures plot. The benchmark harness calls
these and prints paper-vs-measured comparisons.
"""

from repro.analysis.job_level import (
    AppPowerComparison,
    PowerDistribution,
    SplitAnalysis,
    app_power_comparison,
    feature_power_correlations,
    per_node_power_distribution,
    split_analysis,
)
from repro.analysis.full_report import full_report
from repro.analysis.phase_detection import PhaseAnalysis, analyze_phases, detect_phases
from repro.analysis.prediction import (
    run_failure_classification,
    run_gpu_prediction,
    run_prediction,
    run_track,
)
from repro.analysis.stragglers import (
    NodeFactorEstimate,
    StragglerReport,
    estimate_node_factors,
    straggler_nodes,
)
from repro.analysis.report import comparison_text, format_table
from repro.analysis.spatial import SpatialSummary, spatial_summary
from repro.analysis.system_level import UtilizationSummary, power_utilization, system_utilization
from repro.analysis.temporal import TemporalSummary, temporal_summary
from repro.analysis.user_level import (
    ClusterVariability,
    ConcentrationSummary,
    UserVariability,
    cluster_variability,
    concentration_analysis,
    user_power_variability,
    user_totals,
)

__all__ = [
    "UtilizationSummary",
    "system_utilization",
    "power_utilization",
    "PowerDistribution",
    "per_node_power_distribution",
    "AppPowerComparison",
    "app_power_comparison",
    "feature_power_correlations",
    "SplitAnalysis",
    "split_analysis",
    "TemporalSummary",
    "temporal_summary",
    "SpatialSummary",
    "spatial_summary",
    "ConcentrationSummary",
    "concentration_analysis",
    "user_totals",
    "UserVariability",
    "user_power_variability",
    "ClusterVariability",
    "cluster_variability",
    "run_prediction",
    "run_track",
    "run_gpu_prediction",
    "run_failure_classification",
    "PhaseAnalysis",
    "detect_phases",
    "analyze_phases",
    "StragglerReport",
    "straggler_nodes",
    "NodeFactorEstimate",
    "estimate_node_factors",
    "format_table",
    "comparison_text",
    "full_report",
]
