"""Tests for system specs, nodes, variability, and the cluster container."""

import numpy as np
import pytest

from repro.cluster import (
    EMMY,
    MEGGIE,
    Cluster,
    Node,
    SystemSpec,
    VariabilityModel,
    build_nodes,
    get_spec,
    known_systems,
)
from repro.errors import ClusterError


class TestSpecs:
    def test_table1_emmy(self):
        assert EMMY.num_nodes == 560
        assert EMMY.node_tdp_watts == 210.0
        assert EMMY.microarchitecture == "IvyBridge"
        assert EMMY.batch_system == "torque"
        assert EMMY.process_node_nm == 22

    def test_table1_meggie(self):
        assert MEGGIE.num_nodes == 728
        assert MEGGIE.node_tdp_watts == 195.0
        assert MEGGIE.microarchitecture == "Broadwell"
        assert MEGGIE.batch_system == "slurm"
        assert not MEGGIE.smt_enabled

    def test_total_tdp(self):
        assert EMMY.total_tdp_watts == 560 * 210.0

    def test_cores_per_node(self):
        assert EMMY.cores_per_node == 20

    def test_linpack_node_power_below_tdp(self):
        # Table 1: LINPACK drew 170 kW on Emmy and 210 kW on Meggie.
        assert EMMY.linpack_node_power_watts < EMMY.node_tdp_watts * 1.5
        assert MEGGIE.linpack_node_power_watts < MEGGIE.node_tdp_watts * 1.5

    def test_registry(self):
        assert known_systems() == ["alex", "emmy", "meggie", "woody"]
        assert get_spec("EMMY") is EMMY

    def test_gpu_inventory(self):
        alex = get_spec("alex")
        assert alex.has_gpus and alex.total_gpus == 82 * 8
        assert alex.gpus_on(0) == 8 and alex.gpus_on(81) == 8
        woody = get_spec("woody")
        assert woody.gpu_node_count == 32
        assert woody.gpus_on(31) == 4 and woody.gpus_on(32) == 0
        assert not EMMY.has_gpus and EMMY.total_gpus == 0

    def test_unknown_system(self):
        with pytest.raises(ClusterError, match="unknown system"):
            get_spec("summit")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ClusterError):
            SystemSpec(
                **{
                    **{f: getattr(EMMY, f) for f in EMMY.__dataclass_fields__},
                    "num_nodes": 0,
                }
            )


class TestVariability:
    def test_factors_centered_on_one(self, rng):
        factors = VariabilityModel(sigma=0.04).draw_factors(5000, rng)
        assert abs(factors.mean() - 1.0) < 0.01
        assert abs(factors.std() - 0.04) < 0.01

    def test_clipping(self, rng):
        factors = VariabilityModel(sigma=0.3, clip=0.1).draw_factors(1000, rng)
        assert factors.min() >= 0.9 and factors.max() <= 1.1

    def test_zero_sigma(self, rng):
        factors = VariabilityModel(sigma=0.0).draw_factors(10, rng)
        np.testing.assert_array_equal(factors, np.ones(10))

    def test_invalid_params(self):
        with pytest.raises(ClusterError):
            VariabilityModel(sigma=-0.1)
        with pytest.raises(ClusterError):
            VariabilityModel(clip=0.9)

    def test_bad_count(self, rng):
        with pytest.raises(ClusterError):
            VariabilityModel().draw_factors(0, rng)


class TestNode:
    def test_effective_power_clipped(self):
        node = Node(node_id=0, system="emmy", tdp_watts=200.0, power_factor=1.1, idle_watts=40.0)
        assert node.effective_power(300.0) == 200.0
        assert node.effective_power(10.0) == 40.0
        assert node.effective_power(100.0) == pytest.approx(110.0)

    def test_invalid_node(self):
        with pytest.raises(ClusterError):
            Node(node_id=0, system="e", tdp_watts=200.0, power_factor=1.0, idle_watts=250.0)

    def test_build_nodes(self, rng):
        nodes = build_nodes(EMMY, rng)
        assert len(nodes) == 560
        assert all(n.tdp_watts == 210.0 for n in nodes)
        assert len({n.node_id for n in nodes}) == 560


class TestCluster:
    def test_from_name(self):
        c = Cluster.from_name("emmy", seed=1)
        assert c.num_nodes == 560
        assert c.name == "emmy"
        assert c.total_tdp_watts == EMMY.total_tdp_watts

    def test_scaled_down(self):
        c = Cluster.from_name("meggie", seed=1, num_nodes=32)
        assert c.num_nodes == 32
        assert c.node_tdp_watts == 195.0

    def test_deterministic_factors(self):
        a = Cluster.from_name("emmy", seed=9).power_factors
        b = Cluster.from_name("emmy", seed=9).power_factors
        np.testing.assert_array_equal(a, b)

    def test_factors_read_only(self):
        c = Cluster.from_name("emmy", seed=1, num_nodes=4)
        with pytest.raises(ValueError):
            c.power_factors[0] = 2.0

    def test_node_lookup_bounds(self):
        c = Cluster.from_name("emmy", seed=1, num_nodes=4)
        assert c.node(3).node_id == 3
        with pytest.raises(ClusterError):
            c.node(4)

    def test_invalid_override(self):
        with pytest.raises(ClusterError):
            Cluster.from_name("emmy", num_nodes=0)

