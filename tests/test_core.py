"""Core geometry: charts, dynamical metric, Birkhoff sums, brackets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eqmeas
from eqmeas.core import CHART_TOL

S5 = np.sqrt(5.0)
LAM = (3 + S5) / 2
H = np.log(LAM)


@pytest.fixture(scope="module")
def sysm(cat):
    return cat.system


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def bracket_search(sys, x, y, max_iter=25):
    """Bracket oracle: damped Newton iteration on chart coordinates.

    Solves unstable_chart(x, t) = cs_chart(y, s) for (t, s) with a
    finite-difference Jacobian, seeded from the frame split.
    """
    x, y = eqmeas.mod1(x), eqmeas.mod1(y)
    u0, cs0 = sys.split(np.asarray(y) - x)
    z = np.concatenate([[u0], cs0])  # unknowns: t and s stacked

    def residual(v):
        return eqmeas.wrap(sys.unstable_chart(x, v[0]) - sys.cs_chart(y, v[1:]))

    h = 1e-7
    for _ in range(max_iter):
        r = residual(z)
        if np.linalg.norm(r) < CHART_TOL:
            break
        jac = np.empty((sys.dim, sys.dim))
        for j in range(sys.dim):
            dz = np.zeros_like(z)
            dz[j] = h
            jac[:, j] = (residual(z + dz) - r) / h
        z = z - np.linalg.solve(jac, r)
    return sys.unstable_chart(x, z[0])


class TestFrame:
    def test_unstable_direction(self, sysm):
        want = unit([1.0, (S5 - 1) / 2])
        assert sysm.frame[0] == pytest.approx(want, rel=1e-12)

    def test_stable_direction(self, sysm):
        want = unit([(S5 - 1) / 2, -1.0])
        assert sysm.frame[1] == pytest.approx(want, rel=1e-12)

    def test_eigenvector_property(self, sysm):
        A = np.array([[2.0, 1.0], [1.0, 1.0]])
        assert A @ sysm.frame[0] == pytest.approx(LAM * sysm.frame[0])
        assert A @ sysm.frame[1] == pytest.approx(sysm.frame[1] / LAM,
                                                  abs=1e-12)

    def test_multipliers(self, sysm):
        assert sysm.leaf_rate == pytest.approx(LAM)
        assert 0 < sysm.nu < sysm.leaf_rate


class TestIteration:
    def test_single_step(self, sysm):
        out = eqmeas.iterate(sysm, np.array([0.1, 0.2]), 1)
        assert out == pytest.approx([0.4, 0.3])

    def test_backward_inverts(self, sysm):
        x = np.array([0.37, 0.81])
        back = eqmeas.iterate(sysm, eqmeas.iterate(sysm, x, 3), -3)
        assert eqmeas.torus_dist(back, x) < 1e-12

    def test_orbit_shape_and_consistency(self, sysm):
        x = np.array([0.1, 0.2])
        orb = eqmeas.orbit(sysm, x, 5)
        assert orb.shape == (5, 2)
        assert orb[0] == pytest.approx(x)
        assert orb[3] == pytest.approx(eqmeas.iterate(sysm, x, 3))

    def test_orbit_batch(self, sysm):
        pts = np.random.default_rng(0).random((7, 2))
        orb = eqmeas.orbit(sysm, pts, 4)
        assert orb.shape == (4, 7, 2)


class TestDynMetric:
    def test_frozen_value(self, sysm):
        d = eqmeas.dyn_metric(sysm, np.array([0.01, 0.0]), np.zeros(2), 2)
        assert d == pytest.approx(0.022360679774997918, rel=1e-12)

    def test_n1_is_plain_distance(self, sysm):
        a, b = np.array([0.1, 0.9]), np.array([0.95, 0.05])
        assert eqmeas.dyn_metric(sysm, a, b, 1) == pytest.approx(
            eqmeas.torus_dist(a, b))

    @given(n=st.integers(min_value=1, max_value=6), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_n(self, sysm, n, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random(2), rng.random(2)
        d1 = eqmeas.dyn_metric(sysm, a, b, n)
        d2 = eqmeas.dyn_metric(sysm, a, b, n + 1)
        assert d2 >= d1 - 1e-14


class TestBirkhoffSum:
    def test_constant_closed_form(self, sysm):
        phi = eqmeas.constant_potential(-H)
        assert eqmeas.birkhoff_sum(sysm, phi, np.zeros(2), 3) == pytest.approx(
            -2.887270950357621, rel=1e-12)

    def test_constant_batch_shape(self, sysm):
        phi = eqmeas.constant_potential(0.25)
        out = eqmeas.birkhoff_sum(sysm, phi, np.zeros((4, 2)), 5)
        assert out.shape == (4,)
        assert out == pytest.approx(1.25)

    def test_matches_explicit_orbit_sum(self, sysm):
        phi = eqmeas.base_cosine_potential(0.05)
        x = np.array([0.23, 0.61])
        orb = eqmeas.orbit(sysm, x, 6)
        want = sum(phi.fn(orb[k]) for k in range(6))
        assert eqmeas.birkhoff_sum(sysm, phi, x, 6) == pytest.approx(want)

    @given(m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_cocycle_identity(self, sysm, m, n, seed):
        phi = eqmeas.base_cosine_potential(0.3)
        x = np.random.default_rng(seed).random(2)
        lhs = eqmeas.birkhoff_sum(sysm, phi, x, m + n)
        rhs = (eqmeas.birkhoff_sum(sysm, phi, x, m)
               + eqmeas.birkhoff_sum(sysm, phi, eqmeas.iterate(sysm, x, m), n))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCharts:
    def test_leaf_point_frozen(self, sysm):
        out = eqmeas.leaf_point(sysm, np.zeros(2), 0.05)
        assert out == pytest.approx([0.04253254, 0.02628656], abs=1e-7)

    def test_leaf_point_matches_chart(self, sysm):
        x = np.array([0.9, 0.95])
        assert eqmeas.leaf_point(sysm, x, 0.3) == pytest.approx(
            sysm.unstable_chart(x, 0.3))

    # |t|, |s| <= 0.25 keeps the displacement inside the half-unit box,
    # where wrap() returns the same lattice representative we started from
    @given(t=st.floats(-0.25, 0.25), s=st.floats(-0.25, 0.25),
           seed=st.integers(0, 99))
    @settings(max_examples=30, deadline=None)
    def test_split_roundtrip(self, sysm, t, s, seed):
        x = np.random.default_rng(seed).random(2)
        y = eqmeas.mod1(x + t * sysm.frame[0] + s * sysm.frame[1])
        tu, tcs = sysm.split(eqmeas.wrap(y - x))
        assert tu == pytest.approx(t, abs=CHART_TOL)
        assert tcs[0] == pytest.approx(s, abs=CHART_TOL)

    def test_cs_chart(self, sysm):
        x = np.array([0.4, 0.4])
        y = sysm.cs_chart(x, np.array([0.07]))
        assert eqmeas.wrap(y - x) == pytest.approx(0.07 * sysm.frame[1])


class TestBracket:
    def test_exact_on_frame_offsets(self, sysm):
        x = np.array([0.1, 0.2])
        y = eqmeas.mod1(x + 0.03 * sysm.frame[0] + 0.02 * sysm.frame[1])
        out = eqmeas.bracket(sysm, x, y)
        assert out == pytest.approx(eqmeas.mod1(x + 0.03 * sysm.frame[0]),
                                    abs=1e-10)

    def test_search_agrees(self, sysm):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.random(2)
            y = eqmeas.mod1(x + 0.1 * (rng.random(2) - 0.5))
            a = eqmeas.bracket(sysm, x, y)
            b = bracket_search(sysm, x, y)
            assert eqmeas.torus_dist(a, b) < 1e-7

    def test_idempotent(self, sysm):
        x, y = np.array([0.15, 0.85]), np.array([0.12, 0.9])
        z = eqmeas.bracket(sysm, x, y)
        assert eqmeas.torus_dist(eqmeas.bracket(sysm, x, z), z) < 1e-10

    def test_lies_on_both_leaves(self, sysm):
        x, y = np.array([0.5, 0.1]), np.array([0.55, 0.12])
        z = eqmeas.bracket(sysm, x, y)
        tu, tcs = sysm.split(eqmeas.wrap(z - x))
        assert abs(tcs[0]) < 1e-10          # on the unstable leaf of x
        su, scs = sysm.split(eqmeas.wrap(z - y))
        assert abs(su) < 1e-10              # on the center-stable leaf of y

    def test_rejects_distant_points(self, sysm):
        with pytest.raises(ValueError):
            eqmeas.bracket(sysm, np.array([0.0, 0.0]), np.array([0.5, 0.25]))


class TestBowenConstants:
    def test_constant_potential_is_exact(self, sysm):
        q_u, q_cs = eqmeas.bowen_constants(sysm, eqmeas.constant_potential(0.7))
        assert q_u == 0.0 and q_cs == 0.0

    def test_holder_potential_is_finite(self, sysm):
        q_u, q_cs = eqmeas.bowen_constants(
            sysm, eqmeas.base_cosine_potential(0.05), n_max=8)
        assert 0 <= q_u < 1.0
        assert 0 <= q_cs < 1.0
