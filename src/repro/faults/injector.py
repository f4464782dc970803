"""Arming fault plans and firing injection points.

The code base is threaded with calls like ``maybe_fire("cache.read")``
at its named injection points (see :data:`~repro.faults.plan.INJECTION_POINTS`).
When nothing is armed those calls are a single module-global read and a
``None`` check — no locks, no dict lookups, no plan evaluation — so the
production hot paths pay effectively nothing for being injectable
(``tests/faults/test_injector.py`` pins the disarmed behavior).

Arming is a context manager::

    from repro.faults import FaultInjector, soak_plan

    injector = FaultInjector(soak_plan(seed=7))
    with injector:                      # arms the process-wide injector
        ...                             # faults fire per the plan
    injector.snapshot()                 # per-point call/fire counters

Only one injector is armed at a time per process (nesting restores the
previous one on exit). Call indices are assigned atomically per point,
so the *number* of faults a run injects is exactly the plan's schedule
even under heavy thread contention.
"""

from __future__ import annotations

import threading
import time
from typing import Any

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, decide
from repro.obs.metrics import REGISTRY

__all__ = ["FaultInjector", "arm", "active_injector", "maybe_fire"]

# Fault observability (docs/OBSERVABILITY.md). Updated only inside
# FaultInjector.fire(), i.e. only while an injector is armed — the
# disarmed maybe_fire() fast path stays a global read + None check.
_FAULT_CALLS = REGISTRY.counter(
    "repro_fault_calls_total",
    "Armed injection-point evaluations, per point.",
    labelnames=("point",),
)
_FAULT_FIRES = REGISTRY.counter(
    "repro_fault_fires_total",
    "Injected faults actually fired, per point.",
    labelnames=("point",),
)

# The process-wide armed injector. Injection points read this exactly
# once per call; None (the steady state) short-circuits everything.
_ACTIVE: FaultInjector | None = None
_ARM_LOCK = threading.Lock()


class FaultInjector:
    """Evaluates one :class:`~repro.faults.plan.FaultPlan` at runtime.

    Tracks, per injection point, how many times the point was reached
    (``calls``) and how many of those calls fired (``fires``). Use as a
    context manager to arm it process-wide; :meth:`fire` may also be
    driven directly (the chaos clients do this for ``http.malformed``).
    """

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultError("FaultInjector needs a FaultPlan")
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: dict[str, int] = {}
        self._fires: dict[str, int] = {}
        self._previous: FaultInjector | None = None

    # -- firing ----------------------------------------------------------

    def fire(self, point: str) -> bool:
        """Record one call at ``point``; True when the plan says *fault*.

        Thread-safe: the per-point call index is assigned under a lock,
        then the (pure) schedule decision runs outside it. Latency-mode
        rules sleep here so call sites stay one-liners.
        """
        rule = self.plan.rule_for(point)
        if rule is None:
            return False
        with self._lock:
            n = self._calls.get(point, 0)
            self._calls[point] = n + 1
        _FAULT_CALLS.inc(point=point)
        if not decide(rule, self.plan.seed, n):
            return False
        with self._lock:
            self._fires[point] = self._fires.get(point, 0) + 1
        _FAULT_FIRES.inc(point=point)
        self._record_fire(point, n)
        if rule.duration_s > 0:
            time.sleep(rule.duration_s)
        return True

    def _record_fire(self, point: str, n: int) -> None:
        """Subclass hook: called once per fired call, before any latency
        sleep, with the fired call's per-point index. The incident
        orchestrator's ledger injector timestamps fires through this."""

    # -- inspection ------------------------------------------------------

    def counters(self) -> dict[str, dict[str, int]]:
        """Per-point ``{"calls": n, "fires": k}`` snapshot."""
        with self._lock:
            return {
                point: {
                    "calls": self._calls.get(point, 0),
                    "fires": self._fires.get(point, 0),
                }
                for point in sorted(set(self._calls) | set(self._fires))
            }

    def fires(self, point: str) -> int:
        """How many times ``point`` has fired so far."""
        with self._lock:
            return self._fires.get(point, 0)

    def calls(self, point: str) -> int:
        """How many times ``point`` has been reached so far."""
        with self._lock:
            return self._calls.get(point, 0)

    def snapshot(self) -> dict[str, Any]:
        """Structured injector state for reports and ``/v1/healthz``."""
        return {
            "seed": self.plan.seed,
            "points": list(self.plan.points),
            "counters": self.counters(),
        }

    # -- arming ----------------------------------------------------------

    def __enter__(self) -> "FaultInjector":
        global _ACTIVE
        with _ARM_LOCK:
            self._previous = _ACTIVE
            _ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        with _ARM_LOCK:
            if _ACTIVE is not self:
                raise FaultError("disarm order violated: not the armed injector")
            _ACTIVE = self._previous
            self._previous = None


def arm(plan: FaultPlan) -> FaultInjector:
    """Build an injector for ``plan``, ready to arm via ``with``.

    Convenience for the common one-liner::

        with arm(soak_plan(seed=3)) as injector:
            ...
    """
    return FaultInjector(plan)


def active_injector() -> FaultInjector | None:
    """The currently armed injector, or None (the steady state)."""
    return _ACTIVE


def maybe_fire(point: str) -> bool:
    """Fire ``point`` on the armed injector; False when nothing is armed.

    This is the call sites' entry point. Disarmed cost: one global read
    and a ``None`` check.
    """
    injector = _ACTIVE
    if injector is None:
        return False
    return injector.fire(point)
