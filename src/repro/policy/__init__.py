"""Power-management policies derived from the paper's implications.

Section 6 argues that the characterization enables concrete mechanisms:

* **static per-job power capping** at predicted-power + headroom
  (:mod:`~repro.policy.capping`) — safe because temporal variance is low,
* **hardware over-provisioning** under a system-wide power budget
  (:mod:`~repro.policy.overprovision`) — profitable because of stranded
  power, and
* **power-aware scheduling** (:mod:`~repro.policy.powersched`) — admit a
  job only while the predicted system power stays under the budget.

These back the ablation benches (A1/A2 in DESIGN.md).
"""

from repro.policy.capping import CappingOutcome, StaticCapPolicy, evaluate_capping
from repro.policy.overprovision import OverprovisionOutcome, evaluate_overprovisioning
from repro.policy.powersched import (
    PowerAwareSimulator,
    PowerSchedulingOutcome,
    evaluate_power_capped_scheduling,
)

__all__ = [
    "StaticCapPolicy",
    "CappingOutcome",
    "evaluate_capping",
    "OverprovisionOutcome",
    "evaluate_overprovisioning",
    "PowerAwareSimulator",
    "PowerSchedulingOutcome",
    "evaluate_power_capped_scheduling",
]
