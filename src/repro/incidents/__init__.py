"""Auto-graded incident benchmark over the served prediction system.

Turns the chaos ingredients — seeded
:class:`~repro.faults.plan.FaultPlan` schedules, the
:mod:`repro.obs` metrics/traces, the serving stack — into a graded
detect/localize/root-cause benchmark (the ROADMAP's AIOps scenario
harness, in the orchestrator/observer/grader mold of AIOpsLab-style
suites):

* :class:`~repro.incidents.scenarios.IncidentScenario` /
  :data:`~repro.incidents.scenarios.SCENARIOS` — the frozen catalog:
  ≥8 replayable incidents (single-point faults, compound storms,
  latency-only degradation, a fault-free control), each a seeded plan
  plus a :class:`~repro.incidents.scenarios.LoadProfile`;
  :func:`~repro.incidents.scenarios.soak_scenario` is the chaos soak
  (every point armed at once), kept out of the catalog;
* :class:`~repro.incidents.harness.ServedSystem` — the one reusable
  start/drive/observe/stop harness around one in-process server
  (ephemeral port, JSON client, fault arming, metric-delta windows);
  the pytest suites share it via ``tests/helpers/served.py``;
* :func:`~repro.incidents.orchestrator.run_scenario` /
  :class:`~repro.incidents.orchestrator.IncidentBundle` — runs one
  scenario against a live system while a
  :class:`~repro.incidents.orchestrator.LedgerInjector` timestamps
  every fired fault and an observer snapshots windowed metric deltas;
  everything lands in a self-contained bundle directory whose ground
  truth is *derived* from the ledger (same scenario ⇒ same digest);
  :func:`~repro.incidents.orchestrator.audit_bundle` checks every
  bundle against the system's own invariants (nothing lost, counters
  agree with the ledger, bit-identical recovery);
* :class:`~repro.incidents.detectors.RuleBasedDetector` /
  :data:`~repro.incidents.detectors.BASELINE_DETECTORS` — the first
  detector family: threshold rules over the observable record (never
  the ledger or fault counters);
* :func:`~repro.incidents.grader.grade_answer` /
  :class:`~repro.incidents.grader.Scorecard` — precision / recall /
  time-to-detect scoring with the benchmark gates (perfect single-point
  recall, zero control false positives).

CLI: ``repro incidents list|run|grade``; ``tools/incidents_bench.py``
commits the baseline scorecard and ``tools/smoke.py incidents`` /
``tools/smoke.py chaos`` gate CI. See docs/INCIDENTS.md for the
catalog, bundle format, and grading metrics.

Every symbol resolves lazily (PEP 562), matching the sibling packages.
"""

from repro import _lazy

__all__ = [
    "BASELINE_DETECTORS",
    "DetectorAnswer",
    "IncidentBundle",
    "IncidentGrade",
    "IncidentScenario",
    "LedgerInjector",
    "LoadProfile",
    "RuleBasedDetector",
    "SCENARIOS",
    "Scorecard",
    "ServedSystem",
    "audit_bundle",
    "get_detector",
    "get_scenario",
    "grade_answer",
    "run_scenario",
    "scenario_names",
    "soak_scenario",
]

# Lazy attribute map (PEP 562): name -> defining module.
_LAZY_ATTRS = {
    "IncidentScenario": "repro.incidents.scenarios",
    "LoadProfile": "repro.incidents.scenarios",
    "SCENARIOS": "repro.incidents.scenarios",
    "get_scenario": "repro.incidents.scenarios",
    "scenario_names": "repro.incidents.scenarios",
    "soak_scenario": "repro.incidents.scenarios",
    "ServedSystem": "repro.incidents.harness",
    "IncidentBundle": "repro.incidents.orchestrator",
    "LedgerInjector": "repro.incidents.orchestrator",
    "audit_bundle": "repro.incidents.orchestrator",
    "run_scenario": "repro.incidents.orchestrator",
    "BASELINE_DETECTORS": "repro.incidents.detectors",
    "DetectorAnswer": "repro.incidents.detectors",
    "RuleBasedDetector": "repro.incidents.detectors",
    "get_detector": "repro.incidents.detectors",
    "IncidentGrade": "repro.incidents.grader",
    "Scorecard": "repro.incidents.grader",
    "grade_answer": "repro.incidents.grader",
}

__getattr__, __dir__ = _lazy.exports(__name__, _LAZY_ATTRS)
