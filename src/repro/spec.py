"""The canonical scenario description shared across the package.

A :class:`ScenarioSpec` answers "which simulated machine, at what scale,
over what horizon?" once, in one frozen object, instead of every layer
re-declaring the same six keyword arguments. It is consumed by

* the CLI (``--system/--seed/--num-nodes/...`` flags map 1:1 to fields),
* the pipeline (:meth:`ScenarioSpec.to_shard_config`),
* the top-level facade (:func:`repro.generate_dataset`,
  :func:`repro.evaluate`, :func:`repro.create_server`), and
* the serving layer, which keys trained models by
  :attr:`ScenarioSpec.dataset_digest` — the same content address the
  pipeline cache uses for the dataset artifact.

The module is deliberately import-light (no numpy, no simulation layer)
so the PEP 562 lazy package surface and the CLI's bookkeeping
subcommands can load it for free.

Legacy call sites that still pass ``system=...``/``horizon_s=...``
keyword arguments go through :func:`as_scenario`, the thin shim that
normalizes either style into a ``ScenarioSpec``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from numbers import Integral, Real
from typing import Any, Mapping

from repro.errors import ScenarioError

__all__ = ["DAY_S", "SYSTEM_NAMES", "ScenarioSpec", "as_scenario"]

DAY_S = 86400

#: The built-in system names. Mirrors :func:`repro.cluster.known_systems`,
#: spelled out so this module never imports the (numpy-heavy) cluster
#: package; a test pins the two together.
SYSTEM_NAMES = ("alex", "emmy", "meggie", "woody")


def _is_int(value: Any) -> bool:
    """An integer (numpy integers included), but not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A finite real number, but not a bool."""
    return (
        isinstance(value, Real) and not isinstance(value, bool)
        and math.isfinite(value)
    )


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulated-deployment scenario: system, seed, scale, horizon.

    Fields mirror the CLI's scale flags; ``None`` means "the paper's
    full production configuration" (all nodes, calibrated user count,
    the 5-month horizon). The spec is hashable and frozen, so it can key
    caches directly.

    >>> spec = ScenarioSpec("emmy", seed=7, num_nodes=40, horizon_days=2)
    >>> spec.horizon_s
    172800
    >>> spec.label
    'emmy/seed7'
    """

    system: str = "emmy"
    seed: int = 0
    num_nodes: int | None = None
    num_users: int | None = None
    horizon_days: float | None = None
    max_traces: int = 2000

    def __post_init__(self) -> None:
        # Fields arrive from HTTP overlays too, so a wrong type is a
        # caller mistake (ScenarioError), not a crash further down.
        if not isinstance(self.system, str) or self.system.lower() not in SYSTEM_NAMES:
            raise ScenarioError(
                f"unknown system {self.system!r}; known: {list(SYSTEM_NAMES)}"
            )
        # One spelling per system: "EMMY" and "emmy" share a label, a
        # dataset digest and every cache entry keyed by them.
        object.__setattr__(self, "system", self.system.lower())
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ScenarioError(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("num_nodes", "num_users"):
            value = getattr(self, name)
            if value is not None and not (_is_int(value) and value >= 1):
                raise ScenarioError(f"{name} must be an integer >= 1, got {value!r}")
        if self.horizon_days is not None and not (
            _is_number(self.horizon_days) and self.horizon_days > 0
        ):
            raise ScenarioError(
                f"horizon_days must be a positive number, got {self.horizon_days!r}"
            )
        if not (_is_int(self.max_traces) and self.max_traces >= 0):
            raise ScenarioError(
                f"max_traces must be an integer >= 0, got {self.max_traces!r}"
            )

    # -- derived views ---------------------------------------------------

    @property
    def horizon_s(self) -> int | None:
        """The horizon in seconds, as the simulation layers expect."""
        if self.horizon_days is None:
            return None
        return round(self.horizon_days * DAY_S)

    @property
    def label(self) -> str:
        """Short human-readable name, e.g. ``emmy/seed7``."""
        return f"{self.system}/seed{self.seed}"

    def dataset_kwargs(self) -> dict[str, Any]:
        """Keyword arguments for ``generate_dataset`` / ``build_dataset``."""
        return {
            "system": self.system,
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "num_users": self.num_users,
            "horizon_s": self.horizon_s,
            "max_traces": self.max_traces,
        }

    def to_shard_config(self, **extra: Any):
        """The pipeline :class:`~repro.pipeline.ShardConfig` for this scenario.

        ``extra`` passes through pipeline-only knobs (``backfill_depth``,
        ``params_overrides``, ``variability_sigma``).
        """
        from repro.pipeline.config import ShardConfig

        return ShardConfig(**self.dataset_kwargs(), **extra)

    @cached_property
    def dataset_digest(self) -> str:
        """Content address of this scenario's dataset artifact.

        Identical to the pipeline cache key of the ``dataset`` stage, so
        a served model and a cached dataset built from the same scenario
        share one identity. Computed once per spec: the key depends only
        on the frozen fields, and a served request reads it several
        times.
        """
        from repro.pipeline.config import stage_key

        return stage_key(self.to_shard_config(), "dataset")

    # -- construction / serialization ------------------------------------

    def replace(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields swapped (validation re-runs)."""
        return replace(self, **changes)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (HTTP payloads, manifests)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`; accepts the legacy ``horizon_s`` key.

        Unknown keys raise :class:`~repro.errors.ScenarioError` so typos
        in HTTP payloads fail loudly instead of silently running the
        default scenario.
        """
        data = dict(data)
        if "horizon_s" in data:
            horizon_s = data.pop("horizon_s")
            if horizon_s is not None:
                if "horizon_days" in data and data["horizon_days"] is not None:
                    raise ScenarioError("pass horizon_days or horizon_s, not both")
                if not _is_number(horizon_s):
                    raise ScenarioError(f"horizon_s must be a number, got {horizon_s!r}")
                data["horizon_days"] = horizon_s / DAY_S
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ScenarioError(
                f"unknown scenario fields {unknown}; known: {sorted(known)}"
            )
        return cls(**data)

    @classmethod
    def from_args(cls, args: Any) -> "ScenarioSpec":
        """Build from an ``argparse`` namespace carrying the scale flags."""
        return cls(
            system=args.system,
            seed=args.seed,
            num_nodes=args.num_nodes,
            num_users=args.num_users,
            horizon_days=args.horizon_days,
            max_traces=args.max_traces,
        )


def as_scenario(
    scenario: "ScenarioSpec | Mapping[str, Any] | str | None" = None,
    **kwargs: Any,
) -> ScenarioSpec:
    """Normalize legacy keyword style into a :class:`ScenarioSpec`.

    The deprecation shim behind every facade entry point. Accepts

    * a ready ``ScenarioSpec`` (extra kwargs override fields),
    * a mapping (e.g. a decoded HTTP payload),
    * the legacy positional system string plus keyword arguments
      (``as_scenario("emmy", seed=7, horizon_s=86400)``), or
    * keyword arguments alone.

    >>> as_scenario("meggie", horizon_s=2 * 86400).horizon_days
    2.0
    >>> spec = ScenarioSpec("emmy", seed=3)
    >>> as_scenario(spec) is spec
    True
    """
    if isinstance(scenario, ScenarioSpec):
        return scenario.replace(**kwargs) if kwargs else scenario
    if isinstance(scenario, Mapping):
        merged = {**dict(scenario), **kwargs}
        return ScenarioSpec.from_dict(merged)
    if scenario is not None:
        if "system" in kwargs:
            raise ScenarioError("system given both positionally and by keyword")
        kwargs["system"] = scenario
    return ScenarioSpec.from_dict(kwargs)
