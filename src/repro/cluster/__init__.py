"""Machine models of the two production clusters the paper studies.

:mod:`repro.cluster.specs` encodes Table 1 verbatim; the rest of the
subpackage turns those specs into simulatable objects: nodes with
manufacturing variability, a RAPL measurement model with one-minute
averaged sampling, and GPU board power.
"""

from repro.cluster.gpu import GPU_IDLE_FRACTION, GPU_NOISE_SIGMA, GpuPowerModel
from repro.cluster.node import Node, build_nodes
from repro.cluster.rapl import RaplModel
from repro.cluster.specs import (
    ALEX,
    EMMY,
    MEGGIE,
    WOODY,
    WORKLOAD_PROFILES,
    SystemSpec,
    get_spec,
    known_systems,
)
from repro.cluster.system import Cluster
from repro.cluster.variability import VariabilityModel

__all__ = [
    "SystemSpec",
    "EMMY",
    "MEGGIE",
    "ALEX",
    "WOODY",
    "WORKLOAD_PROFILES",
    "get_spec",
    "known_systems",
    "Node",
    "build_nodes",
    "Cluster",
    "VariabilityModel",
    "RaplModel",
    "GpuPowerModel",
    "GPU_IDLE_FRACTION",
    "GPU_NOISE_SIGMA",
]
