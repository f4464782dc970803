"""Tests for the RNG factory and unit helpers."""

import numpy as np
import pytest

from repro.rng import RngFactory
from repro.units import DAY, HOUR, MINUTE


class TestRngFactory:
    def test_same_name_same_stream(self):
        a = RngFactory(7).get("x").random(5)
        b = RngFactory(7).get("x").random(5)
        np.testing.assert_array_equal(a, b)

    def test_different_names_differ(self):
        f = RngFactory(7)
        assert not np.array_equal(f.get("x").random(5), f.get("y").random(5))

    def test_order_independent(self):
        f1 = RngFactory(7)
        _ = f1.get("a").random()
        x1 = f1.get("b").random()
        f2 = RngFactory(7)
        x2 = f2.get("b").random()
        assert x1 == x2

    def test_different_seeds_differ(self):
        assert RngFactory(1).get("x").random() != RngFactory(2).get("x").random()

    def test_child_is_deterministic(self):
        a = RngFactory(3).child("sub").get("s").random()
        b = RngFactory(3).child("sub").get("s").random()
        assert a == b

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(0).get("")

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RngFactory("seed")


class TestUnits:
    def test_constants(self):
        assert MINUTE == 60 and HOUR == 3600 and DAY == 86400
