"""Frozen, seeded fault schedules: which injection point fires on which call.

A :class:`FaultPlan` is the reproducible description of a chaos run. It
pairs a seed with a set of :class:`FaultRule` entries, one per named
injection point (see :data:`INJECTION_POINTS`). Whether the *n*-th call
at a point fires is a pure function of ``(plan seed, point name, n)`` —
a SHA-256 draw compared against the rule's rate — so the same plan
produces the same fault schedule on every run, on every machine,
regardless of thread interleaving. The only nondeterminism left in a
chaos run is *which thread* lands on a firing call index, never *how
many* faults a point's call sequence contains.

The module is deliberately import-light (stdlib only, like
:mod:`repro.spec`) because injection points live on hot paths: arming a
plan must never drag numpy or the simulation layers into, say, the
artifact cache's import graph.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.errors import FaultError

__all__ = [
    "INJECTION_POINTS",
    "FaultRule",
    "FaultPlan",
    "decide",
    "soak_plan",
]

#: Catalog of named injection points threaded through the code base.
#: Keys are the point names a :class:`FaultRule` may target; values
#: describe what firing does at that point (see docs/FAULTS.md).
INJECTION_POINTS: dict[str, str] = {
    "cache.read": "ArtifactCache payload/meta load raises CacheError",
    "cache.write": "ArtifactCache commit raises CacheError",
    "cache.corrupt": "ArtifactCache.load_pickle raises UnpicklingError "
                     "(simulates a truncated/corrupted pickle on disk)",
    "registry.train": "ModelRegistry training raises ServeError "
                      "(drives the service into degraded mode)",
    "batcher.crash": "MicroBatcher worker loop raises mid-batch "
                     "(the supervisor must restart it)",
    "batcher.latency": "artificial sleep before the vectorized predict",
    "telemetry.drop": "one job's power aggregate is lost (NaN) "
                      "(the telemetry stage must gap-fill it)",
    "http.malformed": "a chaos client sends a malformed /v1/predict body "
                      "(the server must answer 400 and stay up)",
}

_SCALE = float(1 << 64)


def _draw(seed: int, point: str, n: int) -> float:
    """Uniform [0, 1) draw for call ``n`` at ``point`` — pure and stable."""
    digest = hashlib.sha256(f"{seed}:{point}:{n}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / _SCALE


@dataclass(frozen=True)
class FaultRule:
    """Schedule for one injection point.

    Parameters
    ----------
    point:
        Injection-point name from :data:`INJECTION_POINTS`.
    rate:
        Per-call fire probability in ``[0, 1]`` (evaluated against the
        deterministic draw, not a live RNG).
    start / stop:
        Half-open call-index window ``[start, stop)`` outside which the
        rule never fires (``stop=None`` means "forever"). This is how a
        plan models transient fault bursts that later clear.
    force_calls:
        Call indices that fire unconditionally (still inside the
        window). Soak plans use this to guarantee every point fires at
        least once no matter how few calls the run happens to make.
    duration_s:
        Sleep injected when a latency-mode point fires; ignored by
        error-mode points.
    """

    point: str
    rate: float = 0.0
    start: int = 0
    stop: int | None = None
    force_calls: tuple[int, ...] = ()
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise FaultError(
                f"unknown injection point {self.point!r}; "
                f"known: {sorted(INJECTION_POINTS)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultError(f"rule {self.point}: rate must be in [0, 1]")
        if self.start < 0:
            raise FaultError(f"rule {self.point}: start must be >= 0")
        if self.stop is not None and self.stop <= self.start:
            raise FaultError(f"rule {self.point}: stop must be > start")
        if self.duration_s < 0:
            raise FaultError(f"rule {self.point}: duration_s must be >= 0")
        object.__setattr__(self, "force_calls", tuple(sorted(self.force_calls)))

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (plan files, manifests)."""
        out: dict[str, Any] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["force_calls"] = list(self.force_calls)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        """Inverse of :meth:`to_dict`; unknown keys fail loudly."""
        data = dict(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise FaultError(f"unknown fault-rule fields {unknown}")
        data["force_calls"] = tuple(data.get("force_calls", ()))
        return cls(**data)


def decide(rule: FaultRule, seed: int, n: int) -> bool:
    """Does call ``n`` at ``rule.point`` fire under ``seed``?

    Pure: no state, no RNG objects. The injector calls this with its
    per-point call counter; tests and the soak harness call it directly
    to predict or replay a schedule.
    """
    if n < rule.start or (rule.stop is not None and n >= rule.stop):
        return False
    if n in rule.force_calls:
        return True
    return rule.rate > 0.0 and _draw(seed, rule.point, n) < rule.rate


@dataclass(frozen=True)
class FaultPlan:
    """One reproducible chaos schedule: a seed plus per-point rules.

    Frozen like :class:`~repro.spec.ScenarioSpec` — a plan can key a
    report, ship in a JSON file, and be re-armed bit-for-bit. Two rules
    for the same point are rejected so a plan's behavior is unambiguous.

    >>> plan = FaultPlan(seed=7, rules=(FaultRule("cache.read", rate=0.5),))
    >>> plan.schedule("cache.read", 8) == plan.schedule("cache.read", 8)
    True
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        seen: set[str] = set()
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise FaultError("plan rules must be FaultRule instances")
            if rule.point in seen:
                raise FaultError(f"duplicate rule for point {rule.point!r}")
            seen.add(rule.point)

    def rule_for(self, point: str) -> FaultRule | None:
        """The rule targeting ``point``, or None when the plan skips it."""
        for rule in self.rules:
            if rule.point == point:
                return rule
        return None

    @property
    def points(self) -> tuple[str, ...]:
        """Injection points this plan targets, in rule order."""
        return tuple(rule.point for rule in self.rules)

    def schedule(self, point: str, n_calls: int) -> tuple[int, ...]:
        """Call indices in ``[0, n_calls)`` that fire at ``point``.

        The harness uses this to replay/verify a run's schedule: same
        seed, same call counts ⇒ the same tuple, always.
        """
        rule = self.rule_for(point)
        if rule is None:
            return ()
        return tuple(n for n in range(n_calls) if decide(rule, self.seed, n))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (plan files, chaos reports)."""
        return {"seed": self.seed, "rules": [r.to_dict() for r in self.rules]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        data = dict(data)
        unknown = sorted(set(data) - {"seed", "rules"})
        if unknown:
            raise FaultError(f"unknown fault-plan fields {unknown}")
        return cls(
            seed=int(data.get("seed", 0)),
            rules=tuple(FaultRule.from_dict(r) for r in data.get("rules", ())),
        )

    def save(self, path: str | os.PathLike) -> Path:
        """Write the plan as indented JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "FaultPlan":
        """Read a plan written by :meth:`save` (``serve --fault-plan``)."""
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FaultError(f"cannot load fault plan {path}: {exc}") from None
        return cls.from_dict(data)


def soak_plan(
    seed: int = 0,
    rate: float = 0.15,
    latency_s: float = 0.002,
    points: Iterable[str] | None = None,
) -> FaultPlan:
    """The default all-points chaos plan the soak harness arms.

    Every injection point gets one rule at ``rate`` with an early forced
    fire (call index 1), so a soak run exercises each point at least
    once even when a point is only reached a handful of times. Latency
    points sleep ``latency_s`` per fire.
    """
    chosen = tuple(points) if points is not None else tuple(INJECTION_POINTS)
    rules = tuple(
        FaultRule(
            point,
            rate=rate,
            force_calls=(1,),
            duration_s=latency_s if point == "batcher.latency" else 0.0,
        )
        for point in chosen
    )
    return FaultPlan(seed=seed, rules=rules)
