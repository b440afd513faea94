"""Core geometry: charts, dynamical metric, Birkhoff sums, brackets."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eqmeas
from eqmeas.core import leaf_birkhoff_sum
from oracles import bowen_constants, systems_with_oracles

S5 = np.sqrt(5.0)
LAM = (3 + S5) / 2
H = np.log(LAM)
# Residual tolerance for chart round-trips and bracket consistency checks.
CHART_TOL = 1e-8


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


def bracket(sys, x, y):
    """Local product bracket [x, y]: the point of V^u_loc(x) on V^cs_loc(y),
    read off the frame split of the wrapped displacement y - x."""
    return sys.unstable_chart(x, sys.split(np.asarray(y) - x)[0])


def mod1_oracle(x):
    """Torus reduction by numpy's remainder."""
    return np.asarray(x, dtype=float) % 1.0


def wrap_oracle(delta):
    return (np.asarray(delta, dtype=float) + 0.5) % 1.0 - 0.5


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


EDGES = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 7.0, -7.0, 1e6, -1e6, 0.5, -0.5,
         2.0 ** 52, -2.0 ** 52, 2.0 ** 53, -2.0 ** 53, 1 - 2.0 ** -53,
         -(1 - 2.0 ** -53), 1e-20, -1e-20, 2.0 ** 52 + 0.5, -(2.0 ** 52 + 0.5)]


class TestTorusReduction:
    @pytest.mark.parametrize("scale", [10.0 ** e for e in range(-20, 16, 5)])
    def test_matches_remainder_at_scale(self, scale):
        x = scale * np.random.default_rng(int(np.log10(scale)) + 20).uniform(
            -1.0, 1.0, 10 ** 6)
        assert np.array_equal(bits(eqmeas.mod1(x)), bits(mod1_oracle(x)))
        assert np.array_equal(bits(eqmeas.wrap(x)), bits(wrap_oracle(x)))

    def test_matches_remainder_on_edges(self):
        x = np.array(EDGES)
        assert np.array_equal(bits(eqmeas.mod1(x)), bits(mod1_oracle(x)))
        assert np.array_equal(bits(eqmeas.wrap(x)), bits(wrap_oracle(x)))

    @pytest.mark.parametrize("x", [0.3, -0.3, 3, -3, 0, np.array(-1.25),
                                   np.float64(2.75)])
    def test_scalars(self, x):
        for f, oracle in ((eqmeas.mod1, mod1_oracle), (eqmeas.wrap, wrap_oracle)):
            out = f(x)
            assert np.shape(out) == ()
            assert type(out) is type(oracle(x))
            assert bits(out) == bits(oracle(x))

    def test_does_not_touch_input(self):
        x = np.array([[-0.25, 1.5], [2.0, -3.75]])
        before = x.copy()
        eqmeas.mod1(x)
        eqmeas.wrap(x)
        assert np.array_equal(x, before)

    def test_one_only_just_below_an_integer(self):
        # the contract: values in [0, 1], 1.0 only at most 2**-54 below an
        # integer, as numpy's remainder gives
        assert eqmeas.mod1(-1e-20) == 1.0
        assert eqmeas.mod1(-(2.0 ** -54)) == 1.0
        assert eqmeas.mod1(-(2.0 ** -53)) < 1.0
        assert eqmeas.mod1(1 - 2.0 ** -53) < 1.0

    @settings(max_examples=500, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_property(self, x):
        m = eqmeas.mod1(x)
        assert bits(m) == bits(mod1_oracle(x))
        assert bits(eqmeas.wrap(x)) == bits(wrap_oracle(x))
        assert 0.0 <= m <= 1.0
        assert m < 1.0 or x < 0


class TestTorusDist:
    # 0.5 against 0.0, and 0.75 against 0.25, are offsets of exactly 1/2
    EDGE = [0.0, 1.0, -1e-20, 0.25, 0.5, 0.75]

    @staticmethod
    def check(x, y):
        got = eqmeas.torus_dist(x, y)
        want = np.linalg.norm(eqmeas.wrap(x - y), axis=-1)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("shape", [(3,), (1000, 3), (7, 1000, 3), (7, 100, 4)])
    def test_matches_norm_on_random_points(self, shape):
        rng = np.random.default_rng(len(shape) + shape[-1])
        self.check(rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape))

    def test_matches_norm_on_edges(self):
        pts = np.array(np.meshgrid(*[self.EDGE] * 3, indexing="ij")).reshape(3, -1).T
        self.check(pts[:, None], pts[None, :])
        self.check(pts, pts[::-1])
        for x, y in zip(pts, pts[::-1]):
            self.check(x, y)


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
        orb = [x]
        for _ in range(4):
            orb.append(sysm.step_fwd(orb[-1]))
        assert eqmeas.iterate(sysm, x, 0) == pytest.approx(x)
        assert eqmeas.iterate(sysm, x, 3) == pytest.approx(orb[3])

    def test_orbit_batch(self, sysm):
        pts = np.random.default_rng(0).random((7, 2))
        out = eqmeas.iterate(sysm, pts, 4)
        assert out.shape == (7, 2)
        for p, q in zip(pts, out):
            assert np.array_equal(eqmeas.iterate(sysm, p, 4), q)


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
        want = sum(phi.fn(eqmeas.iterate(sysm, x, k)) for k in range(6))
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
        out = bracket(sysm, x, y)
        assert out == pytest.approx(eqmeas.mod1(x + 0.03 * sysm.frame[0]),
                                    abs=1e-10)

    def test_search_agrees(self, sysm):
        rng = np.random.default_rng(4)
        for _ in range(5):
            x = rng.random(2)
            y = eqmeas.mod1(x + 0.1 * (rng.random(2) - 0.5))
            a = bracket(sysm, x, y)
            b = bracket_search(sysm, x, y)
            assert eqmeas.torus_dist(a, b) < 1e-7

    def test_idempotent(self, sysm):
        x, y = np.array([0.15, 0.85]), np.array([0.12, 0.9])
        z = bracket(sysm, x, y)
        assert eqmeas.torus_dist(bracket(sysm, x, z), z) < 1e-10

    def test_lies_on_both_leaves(self, sysm):
        x, y = np.array([0.5, 0.1]), np.array([0.55, 0.12])
        z = bracket(sysm, x, y)
        tu, tcs = sysm.split(eqmeas.wrap(z - x))
        assert abs(tcs[0]) < 1e-10          # on the unstable leaf of x
        su, scs = sysm.split(eqmeas.wrap(z - y))
        assert abs(su) < 1e-10              # on the center-stable leaf of y

    def test_rejects_distant_points(self, sysm):
        # the holonomy transports along brackets, which need points within r0
        with pytest.raises(ValueError, match="nearby leaves"):
            eqmeas.holonomy_jacobian(sysm, eqmeas.zero_potential(), H,
                                     np.array([0.5, 0.25]), np.array([0.0, 0.0]))


class TestBowenConstants:
    def test_constant_potential_is_exact(self, sysm):
        q_u, q_cs = bowen_constants(sysm, eqmeas.constant_potential(0.7))
        assert q_u == 0.0 and q_cs == 0.0

    def test_holder_potential_is_finite(self, sysm):
        q_u, q_cs = bowen_constants(
            sysm, eqmeas.base_cosine_potential(0.05), n_max=8)
        assert 0 <= q_u < 1.0
        assert 0 <= q_cs < 1.0


class TestSystemSpec:
    def test_rejects_non_2x2_matrix(self, cat, skew):
        with pytest.raises(ValueError, match="matrix must be"):
            dataclasses.replace(skew.system, matrix=np.eye(3))

    def test_rejects_matrix_not_invertible_over_integers(self, cat):
        with pytest.raises(ValueError, match="over the integers"):
            dataclasses.replace(cat.system, matrix=[[2.0, 0.0], [0.0, 2.0]])

    def test_rejects_missing_fiber(self, skew):
        with pytest.raises(ValueError, match="fiber must be None exactly when dim == 2"):
            dataclasses.replace(skew.system, fiber=None)

    def test_rejects_fiber_on_the_base_alone(self, cat, skew):
        with pytest.raises(ValueError, match="fiber must be None exactly when dim == 2"):
            dataclasses.replace(cat.system, fiber=skew.system.fiber)

    def test_rejects_unstable_direction_off_the_base_plane(self, skew):
        frame = skew.system.frame.copy()
        frame[0] = [0.6, 0.0, 0.8]
        with pytest.raises(ValueError, match="base plane"):
            dataclasses.replace(skew.system, frame=frame)

    def test_inverse_is_integer_inverse(self, cat):
        assert np.array_equal(cat.system.inverse, [[1.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(cat.system.matrix @ cat.system.inverse, np.eye(2))


class TestLeafBirkhoffSum:
    PHI = eqmeas.Potential(fn=lambda x: np.cos(2 * np.pi * x[..., 0]) + 0.3 * x[..., -1])

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
    def test_matches_birkhoff_sum_of_leaf_points(self, key):
        sysm = systems_with_oracles()[key][0]
        rng = np.random.default_rng(12)
        # t = -1e-20 from a zero coordinate puts 1.0 in the leaf point
        t = np.concatenate([[-1e-20, 0.0, 1e-20], rng.uniform(-0.5, 0.5, 200)])
        for x in (rng.random(sysm.dim), np.full(sysm.dim, -1e-20), np.zeros(sysm.dim)):
            for n in (1, 2, 7):
                got = leaf_birkhoff_sum(sysm, self.PHI, x, t, n)
                want = eqmeas.birkhoff_sum(sysm, self.PHI, eqmeas.leaf_point(sysm, x, t), n)
                assert np.array_equal(got, want), (x, n)

    @pytest.mark.parametrize("key", ["skew", "slowprod"])
    def test_maps_the_shared_fiber_point_once_per_step(self, key):
        sysm = systems_with_oracles()[key][0]
        rows = []

        def counted(fib):
            rows.append(np.shape(fib))
            return sysm.fiber[0](fib)

        spied = dataclasses.replace(sysm, fiber=(counted, sysm.fiber[1]))
        leaf_birkhoff_sum(spied, self.PHI, np.full(sysm.dim, 0.3), np.linspace(-0.1, 0.1, 50), 5)
        assert rows == [(sysm.dim - 2,)] * 4
