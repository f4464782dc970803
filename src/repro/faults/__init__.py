"""Deterministic fault injection for the pipeline and serving stack.

The paper's dataset comes from months of *production* telemetry, where
node failures, missing RAPL samples, and partial traces are routine.
This subsystem makes those conditions reproducible in-process so the
rest of the stack can prove it survives them:

* :class:`~repro.faults.plan.FaultPlan` / :class:`~repro.faults.plan.FaultRule`
  — a frozen, seeded schedule of which call at which injection point
  faults (same seed ⇒ same schedule, bit-for-bit);
* :class:`~repro.faults.injector.FaultInjector` — context-manager
  arming plus per-point call/fire counters; when nothing is armed every
  injection point is a single ``None`` check.

The chaos soak arms :func:`~repro.faults.plan.soak_plan` under load
through the incident orchestrator
(:func:`repro.incidents.soak_scenario`, ``tools/smoke.py chaos``).

The injection-point catalog, plan file format, and degraded-mode
semantics are documented in docs/FAULTS.md.
"""

from repro.faults.injector import (
    FaultInjector,
    active_injector,
    arm,
    maybe_fire,
)
from repro.faults.plan import (
    INJECTION_POINTS,
    FaultPlan,
    FaultRule,
    decide,
    soak_plan,
)

__all__ = [
    "INJECTION_POINTS",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "active_injector",
    "arm",
    "decide",
    "maybe_fire",
    "soak_plan",
]
