"""Pressure estimation: partition sums, slopes, structural inequalities."""

import dataclasses
import functools

import numpy as np
import pytest

import eqmeas
from eqmeas import pressure
from oracles import pressure_oracle

LAM = (3 + np.sqrt(5.0)) / 2
H = np.log(LAM)
X0 = np.array([0.2, 0.7])


class TestLogPartitionSum:
    def test_count_matches_net(self, cat, phi0):
        lz, count = eqmeas.log_partition_sum(cat.system, phi0, X0, 6, 0.05)
        net = eqmeas.separated_net(cat.system, 6, 0.05, leaf_radius=0.1)
        assert count == len(net)
        assert lz == pytest.approx(np.log(count))

    def test_constant_fast_path_matches_generic(self, cat):
        # a potential with constant_value unset but constant values must
        # give the same sum through the orbit-summing branch
        c = -0.3
        tagged = eqmeas.constant_potential(c)
        untagged = eqmeas.Potential(modes=((c, 0, 0),))  # c * cos 0
        a, _ = eqmeas.log_partition_sum(cat.system, tagged, X0, 5, 0.05)
        b, _ = eqmeas.log_partition_sum(cat.system, untagged, X0, 5, 0.05)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bounds_ordered(self, cat, phi0):
        lo, _ = eqmeas.log_partition_sum(cat.system, phi0, X0, 6, 0.05)
        hi, _ = eqmeas.log_partition_sum(cat.system, phi0, X0, 6, 0.025)
        assert lo <= hi


class TestPressureEstimate:
    def test_frozen_slope(self, cat, phi0):
        est = eqmeas.estimate_pressure(cat.system, phi0, X0)
        assert est.value == pytest.approx(0.9624158297424734, rel=1e-9)
        assert est.per_radius[0.05] == pytest.approx(0.9624158297424734,
                                                     rel=1e-9)

    def test_within_entropy_tolerance(self, cat, phi0):
        est = eqmeas.estimate_pressure(cat.system, phi0, X0)
        assert abs(est.value - H) < 0.05
        assert est.spread < 1e-12

    def test_follows_a_replaced_matrix(self, cat, phi0):
        # the leaf geometry comes from the matrix, not from the system replaced
        sysm = dataclasses.replace(cat.system, matrix=[[3, 2], [1, 1]])
        est = eqmeas.estimate_pressure(sysm, phi0, X0)
        assert est.value == pytest.approx(np.log(2 + np.sqrt(3.0)), abs=1e-3)

    def test_skew_matches_base(self, skew, phi0):
        est = eqmeas.estimate_pressure(skew.system, phi0,
                                       np.array([0.2, 0.7, 0.37]))
        assert est.value == pytest.approx(0.9624158297424734, rel=1e-9)

    def test_affine_in_constant_shift(self, cat, phi0):
        base = eqmeas.estimate_pressure(cat.system, phi0, X0).value
        for c in (-0.5, 0.25):
            est = eqmeas.estimate_pressure(
                cat.system, eqmeas.constant_potential(c), X0)
            assert est.value == pytest.approx(base + c, abs=1e-10)

    def test_geometric_family(self, cat):
        for q in (0.0, 0.5, 1.0, 2.0):
            phi = eqmeas.geometric_potential(cat.system, q)
            est = eqmeas.estimate_pressure(cat.system, phi, X0)
            assert abs(est.value - (1 - q) * H) < 1e-4

    def test_table_layout(self, cat, phi0):
        est = eqmeas.estimate_pressure(cat.system, phi0, X0,
                                       window=(6, 9), radii=(0.05,))
        assert len(est.table) == 4
        ns = [row[0] for row in est.table]
        assert ns == [6, 7, 8, 9]

    def test_default_base_point(self, cat, phi0):
        est = eqmeas.estimate_pressure(cat.system, phi0)
        assert abs(est.value - H) < 0.05


class TestSandwich:
    # coarser packing radius can only lose atoms: Z(2r) <= Z(r) <= Z(r/2)
    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_radius_monotonicity(self, key, phi0):
        ent = eqmeas.get_system(key)
        x = np.array([0.2, 0.7, 0.37])[:ent.system.dim]
        for n in (5, 7, 9):
            coarse, _ = eqmeas.log_partition_sum(ent.system, phi0, x, n, 0.1)
            mid, _ = eqmeas.log_partition_sum(ent.system, phi0, x, n, 0.05)
            fine, _ = eqmeas.log_partition_sum(ent.system, phi0, x, n, 0.025)
            assert coarse <= mid <= fine

    def test_sandwich_gap_is_bounded(self, cat, phi0):
        # the r vs r/2 gap stays within log(2)+slack per Bowen-ball overlap
        for n in (5, 7, 9):
            lo, _ = eqmeas.log_partition_sum(cat.system, phi0, X0, n, 0.05)
            hi, _ = eqmeas.log_partition_sum(cat.system, phi0, X0, n, 0.025)
            assert hi - lo <= np.log(2) + 0.1


class TestSubmultiplicativity:
    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_ratio_bounds(self, key, phi0):
        ent = eqmeas.get_system(key)
        out = eqmeas.check_submultiplicativity(ent.system, phi0)
        assert out["ok"]
        for q in out["ratios"]:
            assert 0.25 <= q <= 4.0

    def test_holder_potential(self, cat):
        phi = eqmeas.base_cosine_potential(0.05)
        out = eqmeas.check_submultiplicativity(cat.system, phi)
        assert out["ok"]


class TestUniformity:
    # the slope of log Z_n should not depend on the base point
    @staticmethod
    def spread(sysm, phi, base_points, window=(6, 12)):
        slopes = [eqmeas.estimate_pressure(sysm, phi, x, window=window,
                                           radii=(0.05,)).value
                  for x in base_points]
        return max(slopes) - min(slopes)

    def test_constant_potential_spread_is_zero(self, cat, phi0):
        rng = np.random.default_rng(0)
        assert self.spread(cat.system, phi0, rng.random((5, 2))) < 1e-12

    def test_holder_potential_spread_is_small(self, cat):
        phi = eqmeas.base_cosine_potential(0.05)
        rng = np.random.default_rng(1)
        assert self.spread(cat.system, phi, rng.random((5, 2)),
                           window=(6, 10)) < 0.02


class TestOnePass:
    """estimate_pressure reads the coarser radii off the finest net."""

    POTENTIALS = {
        "zero": lambda sysm: eqmeas.zero_potential(),
        "cos": lambda sysm: eqmeas.base_cosine_potential(0.05),
        "geom": lambda sysm: eqmeas.geometric_potential(sysm, 1.0),
    }

    @pytest.mark.parametrize("leaf_radius", [0.1, 0.005])
    @pytest.mark.parametrize("pot", ["zero", "cos", "geom"])
    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod"])
    def test_matches_one_net_per_radius(self, key, pot, leaf_radius):
        sysm = eqmeas.get_system(key).system
        phi = self.POTENTIALS[pot](sysm)
        x = np.array([0.2, 0.7, 0.13, 0.86])[:sysm.dim]
        est = eqmeas.estimate_pressure(sysm, phi, x, leaf_radius=leaf_radius)
        table, per_radius, value, spread = pressure_oracle(
            sysm, phi, x, leaf_radius=leaf_radius)
        if pot == "cos":
            # a coarse net's atom is a finer one's at another place in the leaf
            # sum's angle addition (its index and step differ), so its sum
            # may differ in the last bits: by up to 3.6e-15 measured
            close = functools.partial(pytest.approx, rel=0, abs=1e-12)
            table = [(n, r, count, close(log_z)) for n, r, count, log_z in table]
            per_radius = {r: close(v) for r, v in per_radius.items()}
            value, spread = close(value), close(spread)
        assert est.table == table
        assert est.per_radius == per_radius
        assert est.value == value
        assert est.spread == spread

    def test_one_orbit_sum_per_order(self, cat, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[-1])
            return eqmeas.core.leaf_birkhoff_sum(*args)

        monkeypatch.setattr(pressure, "leaf_birkhoff_sum", counted)
        eqmeas.estimate_pressure(cat.system, eqmeas.base_cosine_potential(0.05), X0)
        assert calls == list(range(6, 13))

    @pytest.mark.parametrize("pot", ["zero", "const", "geom"])
    def test_constant_potential_builds_no_net(self, cat, pot, monkeypatch):
        phi = {"zero": eqmeas.zero_potential(),
               "const": eqmeas.constant_potential(-0.3),
               "geom": eqmeas.geometric_potential(cat.system, 0.5)}[pot]
        table = pressure_oracle(cat.system, phi, X0)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("a constant potential needs no net")

        monkeypatch.setattr(pressure, "leaf_birkhoff_sum", refuse)
        assert eqmeas.estimate_pressure(cat.system, phi, X0).table == table

    def test_net_size_limit_before_any_net(self, cat, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no net past the size limit")

        monkeypatch.setattr(pressure, "leaf_birkhoff_sum", refuse)
        with pytest.raises(ArithmeticError,
                           match=r"net of order 15 needs 5685176 atoms \(limit 4194304\)"):
            eqmeas.estimate_pressure(cat.system, eqmeas.base_cosine_potential(0.05), X0,
                                     window=(6, 15))
        # a constant potential counts its nets in closed form and is not limited
        est = eqmeas.estimate_pressure(cat.system, eqmeas.zero_potential(), X0,
                                       window=(6, 15))
        assert est.table[-1][2] == 5685176

    def test_radii_must_be_powers_of_two_apart(self, cat, phi0):
        with pytest.raises(ValueError, match="powers of two"):
            eqmeas.estimate_pressure(cat.system, phi0, X0, radii=(0.05, 0.03))
