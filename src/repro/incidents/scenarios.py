"""The incident catalog: frozen, seeded scenarios the benchmark replays.

An :class:`IncidentScenario` is everything needed to reproduce one
incident bit-for-bit: a seeded :class:`~repro.faults.plan.FaultPlan`
(which injection points misbehave, on which call indices), a
:class:`LoadProfile` (how much client traffic and operator activity the
orchestrator drives while the plan is armed), and the metadata the
grader needs (scenario kind, the points a detector should localize).
Ground truth is *not* declared here — it is derived from the injector's
fire ledger after the run (:mod:`repro.incidents.orchestrator`), so a
scenario cannot lie about what actually happened.

The shipped :data:`SCENARIOS` registry spans the matrix the benchmark
grades (docs/INCIDENTS.md):

* a fault-free **control** (any detection is a false positive),
* **single-point** faults for every failure family — cache read/write
  errors, pickle corruption, a delayed corruption burst (onset-window
  scoring), batcher crashes, telemetry drops, malformed HTTP bodies,
  training failure (degraded mode), and latency-only degradation,
* **compound** incidents combining several of the above.

Every armed rule carries ``force_calls=(0,)`` (the delayed burst forces
its window's first index instead): with deterministic per-point
schedules this makes *which points fired* a pure function of the
scenario, which is what lets the orchestrator commit to a stable bundle
digest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping

from repro.errors import IncidentError
from repro.faults.plan import FaultPlan, FaultRule, soak_plan

__all__ = [
    "LoadProfile",
    "IncidentScenario",
    "SCENARIOS",
    "get_scenario",
    "scenario_names",
    "soak_scenario",
]


@dataclass(frozen=True)
class LoadProfile:
    """How the orchestrator exercises the system while a plan is armed.

    Parameters
    ----------
    n_clients / requests_per_client:
        Closed-loop HTTP predict clients and how many requests each
        sends. Request *counts* are deterministic; only thread
        interleaving varies.
    think_time_s:
        Sleep between a client's requests (0 = back-to-back).
    overlay_every:
        Every ``overlay_every``-th request per client asks for the cold
        ``online`` model on a scenario overlay (a dataset the registry
        has not trained yet), forcing it through ``registry.train``.
        ``0`` disables overlay traffic — only scenarios that target
        ``registry.train`` pay for the extra training work.
    ops_rounds / reads_per_round:
        Operator-style activity per round: one forced pipeline rebuild
        (exercising ``cache.write`` and ``telemetry.drop``) followed by
        ``reads_per_round`` artifact loads (exercising ``cache.read``
        and ``cache.corrupt``).
    """

    n_clients: int = 3
    requests_per_client: int = 12
    think_time_s: float = 0.0
    overlay_every: int = 0
    ops_rounds: int = 2
    reads_per_round: int = 3

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise IncidentError("load profile needs n_clients >= 1")
        if self.requests_per_client < 1:
            raise IncidentError("load profile needs requests_per_client >= 1")
        if self.think_time_s < 0:
            raise IncidentError("load profile think_time_s must be >= 0")
        if self.overlay_every < 0:
            raise IncidentError("load profile overlay_every must be >= 0")
        if self.ops_rounds < 0 or self.reads_per_round < 0:
            raise IncidentError("load profile ops knobs must be >= 0")

    @property
    def total_requests(self) -> int:
        """Deterministic total HTTP predict requests the profile sends."""
        return self.n_clients * self.requests_per_client

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (bundle manifests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LoadProfile":
        """Inverse of :meth:`to_dict`; unknown keys fail loudly."""
        data = dict(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise IncidentError(f"unknown load-profile fields {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class IncidentScenario:
    """One frozen, replayable incident.

    ``kind`` is ``"control"`` (no faults armed), ``"single"`` (one
    faulted point) or ``"compound"`` (several); the grader's headline
    gates key off it. :attr:`fault_points` — the points the plan arms —
    is what a detector is asked to localize; whether each actually fired
    comes from the run's ledger, not from this declaration.
    """

    name: str
    description: str
    plan: FaultPlan
    load: LoadProfile = field(default_factory=LoadProfile)

    def __post_init__(self) -> None:
        if not self.name or any(c.isspace() for c in self.name):
            raise IncidentError("scenario name must be non-empty, no spaces")
        if not isinstance(self.plan, FaultPlan):
            raise IncidentError("scenario plan must be a FaultPlan")
        if not isinstance(self.load, LoadProfile):
            raise IncidentError("scenario load must be a LoadProfile")

    @property
    def fault_points(self) -> tuple[str, ...]:
        """Injection points the scenario arms (in rule order)."""
        return self.plan.points

    @property
    def kind(self) -> str:
        """``control`` / ``single`` / ``compound`` by armed-point count."""
        n = len(self.plan.rules)
        return "control" if n == 0 else ("single" if n == 1 else "compound")

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (bundle manifests, ``incidents list --json``)."""
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "fault_points": list(self.fault_points),
            "plan": self.plan.to_dict(),
            "load": self.load.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IncidentScenario":
        """Inverse of :meth:`to_dict` (``kind``/``fault_points`` are derived)."""
        data = dict(data)
        data.pop("kind", None)
        data.pop("fault_points", None)
        unknown = sorted(set(data) - {"name", "description", "plan", "load"})
        if unknown:
            raise IncidentError(f"unknown scenario fields {unknown}")
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            plan=FaultPlan.from_dict(data.get("plan", {})),
            load=LoadProfile.from_dict(data.get("load", {})),
        )


def _rule(point: str, rate: float, **kwargs: Any) -> FaultRule:
    """An armed rule with the registry's forced-first-call convention."""
    kwargs.setdefault("force_calls", (0,))
    return FaultRule(point, rate=rate, **kwargs)


_REGISTRY_LOAD = LoadProfile(overlay_every=4)

#: The shipped catalog, keyed by scenario name. Frozen specs — the
#: orchestrator replays these; tests pin the catalog's shape.
SCENARIOS: dict[str, IncidentScenario] = {
    s.name: s
    for s in (
        IncidentScenario(
            name="control",
            description="Fault-free baseline: any detection is a false "
            "positive.",
            plan=FaultPlan(seed=100, rules=()),
        ),
        IncidentScenario(
            name="cache-read",
            description="Artifact cache load_* raises CacheError on ~40% "
            "of reads.",
            plan=FaultPlan(seed=101, rules=(_rule("cache.read", 0.4),)),
        ),
        IncidentScenario(
            name="cache-write",
            description="Artifact cache commits fail on ~40% of writes.",
            plan=FaultPlan(seed=102, rules=(_rule("cache.write", 0.4),)),
        ),
        IncidentScenario(
            name="cache-corrupt",
            description="Every pickled artifact read back comes up "
            "corrupted (UnpicklingError).",
            plan=FaultPlan(seed=103, rules=(_rule("cache.corrupt", 1.0),)),
        ),
        IncidentScenario(
            name="delayed-cache-corrupt",
            description="Pickle corruption that only begins at the third "
            "read (onset-window scoring).",
            plan=FaultPlan(
                seed=104,
                rules=(
                    _rule("cache.corrupt", 1.0, start=2, force_calls=(2,)),
                ),
            ),
        ),
        IncidentScenario(
            name="batcher-crash",
            description="MicroBatcher worker loop crashes mid-batch on "
            "~30% of batches; the supervisor restarts it.",
            plan=FaultPlan(seed=105, rules=(_rule("batcher.crash", 0.3),)),
        ),
        IncidentScenario(
            name="telemetry-drop",
            description="Half the power aggregates are lost during "
            "pipeline rebuilds and must be gap-filled.",
            plan=FaultPlan(seed=106, rules=(_rule("telemetry.drop", 0.5),)),
        ),
        IncidentScenario(
            name="http-malformed",
            description="~30% of client requests arrive with malformed "
            "bodies; the server must 400 and stay up.",
            plan=FaultPlan(seed=107, rules=(_rule("http.malformed", 0.3),)),
        ),
        IncidentScenario(
            name="registry-degraded",
            description="Model training always fails; cold-model requests "
            "degrade to the mean-power fallback.",
            plan=FaultPlan(seed=108, rules=(_rule("registry.train", 1.0),)),
            load=_REGISTRY_LOAD,
        ),
        IncidentScenario(
            name="latency-degradation",
            description="Latency-only incident: every batch sleeps 50 ms "
            "before predicting. Nothing errors.",
            plan=FaultPlan(
                seed=109,
                rules=(_rule("batcher.latency", 1.0, duration_s=0.05),),
            ),
        ),
        IncidentScenario(
            name="compound-cache-degraded",
            description="Corrupted artifacts *and* failing training: reads "
            "break while the service degrades.",
            plan=FaultPlan(
                seed=110,
                rules=(
                    _rule("cache.corrupt", 1.0),
                    _rule("registry.train", 1.0),
                ),
            ),
            load=_REGISTRY_LOAD,
        ),
        IncidentScenario(
            name="compound-storm",
            description="Crashing batchers, dropped telemetry, and "
            "malformed clients, all at once.",
            plan=FaultPlan(
                seed=111,
                rules=(
                    _rule("batcher.crash", 0.3),
                    _rule("telemetry.drop", 0.5),
                    _rule("http.malformed", 0.3),
                ),
            ),
        ),
    )
}


def soak_scenario(seed: int = 0, requests_per_client: int = 24) -> IncidentScenario:
    """The chaos soak: every injection point armed at once under load.

    Arms :func:`~repro.faults.plan.soak_plan` with enough overlay
    traffic and operator rounds that all eight points are reached. It
    is kept out of :data:`SCENARIOS`: the catalog grades detectors on
    isolated faults, the soak proves the system survives them all
    (``tools/smoke.py chaos`` gates it with ``audit_bundle``).
    """
    return IncidentScenario(
        name="soak",
        description=f"Every injection point armed (soak_plan seed {seed}).",
        plan=soak_plan(seed),
        load=LoadProfile(
            n_clients=4, requests_per_client=requests_per_client,
            overlay_every=8, ops_rounds=6, reads_per_round=3,
        ),
    )


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, registry order."""
    return tuple(SCENARIOS)


def get_scenario(name: str) -> IncidentScenario:
    """Look up a registered scenario; unknown names fail loudly."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise IncidentError(
            f"unknown incident scenario {name!r}; "
            f"known: {', '.join(scenario_names())}"
        ) from None
