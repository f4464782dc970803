"""repro — reproduction of *"What does Power Consumption Behavior of HPC
Jobs Reveal?"* (Patel et al., IPDPS 2020).

The package has four layers:

1. **Substrates** — :mod:`repro.cluster` (machines, RAPL),
   :mod:`repro.workload` (generative job model), :mod:`repro.scheduler`
   (FCFS + EASY backfill), :mod:`repro.telemetry` (monitoring + dataset
   assembly), :mod:`repro.frames` (columnar tables), :mod:`repro.stats`,
   :mod:`repro.ml` (CART / KNN / FLDA from scratch).
2. **Analyses** — :mod:`repro.analysis`, one function per paper
   figure/table.
3. **Policies** — :mod:`repro.policy`, the paper's implications turned
   into simulators (power capping, over-provisioning, power-aware
   scheduling).
4. **Pipeline** — :mod:`repro.pipeline`, a staged experiment runner
   with a content-addressed artifact cache and multiprocessing fan-out
   (``python -m repro pipeline run|run-all|status|clean``).
5. **Harness** — ``benchmarks/`` regenerate every figure/table;
   ``examples/`` show the public API.

6. **Serving** — :mod:`repro.serve`, the online prediction service
   (micro-batched model serving behind ``repro-power serve``; see
   docs/SERVICE.md).
7. **Incidents** — :mod:`repro.incidents`, the auto-graded chaos
   incident benchmark over the served system (scenario catalog,
   recorded bundles, baseline detectors, scorecard gates; see
   docs/INCIDENTS.md).

The canonical scenario description is :class:`repro.ScenarioSpec` — one
frozen object (system, seed, scale, horizon) shared by the CLI flags,
the pipeline's shard configs, the serving registry, and the top-level
entry points (:func:`repro.generate_dataset` / :func:`repro.evaluate` /
:func:`repro.create_server`). The first two also accept the legacy
keyword style through the :func:`repro.spec.as_scenario` shim;
:func:`repro.create_server` is :func:`repro.serve.create_server` and
takes a ``ScenarioSpec``.

Every public symbol resolves lazily (PEP 562): ``import repro`` is
near-free, and each name pays only for the layer it lives in on first
access. CLI bookkeeping commands therefore import neither numpy nor
scipy. Only :mod:`repro.stats.correlation` imports scipy
(``scipy.special``: about 0.35 s and 26 MiB of peak RSS on a 2-vCPU
Xeon VM), so a dataset build and a serving worker that loads a cached
model never pay for it.

Quickstart
----------
>>> from repro import ScenarioSpec, generate_dataset, per_node_power_distribution
>>> spec = ScenarioSpec("emmy", seed=7, num_nodes=40, num_users=20,
...                     horizon_days=3)
>>> ds = generate_dataset(spec)
>>> dist = per_node_power_distribution(ds)
>>> 0.3 < dist.mean_tdp_fraction < 1.0
True

The legacy keyword style is equivalent:
``generate_dataset("emmy", seed=7, num_nodes=40, num_users=20,
horizon_s=3 * 86400)`` builds the same dataset.
"""

from repro import _lazy
from repro._version import __version__

__all__ = [
    "__version__",
    # substrates
    "SystemSpec",
    "EMMY",
    "MEGGIE",
    "get_spec",
    "Cluster",
    "Table",
    "WorkloadGenerator",
    "default_params",
    "JobDataset",
    # scenario + facade
    "ScenarioSpec",
    "as_scenario",
    "generate_dataset",
    "evaluate",
    "create_server",
    # pipeline
    "ArtifactCache",
    "RunManifest",
    "ShardConfig",
    "build_dataset",
    "run_pipeline",
    # serving
    "ModelRegistry",
    "PredictionService",
    "PredictionServer",
    # fault injection (chaos testing; docs/FAULTS.md)
    "FaultPlan",
    "FaultInjector",
    # analyses
    "system_utilization",
    "power_utilization",
    "per_node_power_distribution",
    "app_power_comparison",
    "feature_power_correlations",
    "split_analysis",
    "temporal_summary",
    "spatial_summary",
    "concentration_analysis",
    "user_power_variability",
    "cluster_variability",
    "run_prediction",
]

# Lazy attribute map (PEP 562): name -> defining module. Importing repro
# stays light; each symbol pulls in its layer on first access.
_LAZY_ATTRS = {
    # substrates
    "SystemSpec": "repro.cluster",
    "EMMY": "repro.cluster",
    "MEGGIE": "repro.cluster",
    "get_spec": "repro.cluster",
    "Cluster": "repro.cluster",
    "Table": "repro.frames",
    "WorkloadGenerator": "repro.workload",
    "default_params": "repro.workload",
    "JobDataset": "repro.telemetry",
    # scenario + facade (generate_dataset accepts a ScenarioSpec *or*
    # the legacy keyword style; see repro.facade)
    "ScenarioSpec": "repro.spec",
    "as_scenario": "repro.spec",
    "generate_dataset": "repro.facade",
    "evaluate": "repro.facade",
    "create_server": "repro.serve.http",
    # pipeline
    "ArtifactCache": "repro.pipeline",
    "RunManifest": "repro.pipeline",
    "ShardConfig": "repro.pipeline",
    "build_dataset": "repro.pipeline",
    "run_pipeline": "repro.pipeline",
    # serving
    "ModelRegistry": "repro.serve",
    "PredictionService": "repro.serve",
    "PredictionServer": "repro.serve",
    # fault injection
    "FaultPlan": "repro.faults",
    "FaultInjector": "repro.faults",
    # analyses
    "system_utilization": "repro.analysis",
    "power_utilization": "repro.analysis",
    "per_node_power_distribution": "repro.analysis",
    "app_power_comparison": "repro.analysis",
    "feature_power_correlations": "repro.analysis",
    "split_analysis": "repro.analysis",
    "temporal_summary": "repro.analysis",
    "spatial_summary": "repro.analysis",
    "concentration_analysis": "repro.analysis",
    "user_power_variability": "repro.analysis",
    "cluster_variability": "repro.analysis",
    "run_prediction": "repro.analysis",
}

__getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)
