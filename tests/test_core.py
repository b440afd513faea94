"""Core geometry: charts, dynamical metric, Birkhoff sums, brackets."""

import dataclasses
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import eqmeas
from eqmeas import core
from eqmeas.core import leaf_birkhoff_sum
from oracles import bowen_constants, leaf_sum_oracle, systems_with_oracles

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

    # every last axis below 8, where the column sum rounds as add.reduce
    @pytest.mark.parametrize("shape", [(3,), (1000, 3), (7, 1000, 3), (7, 100, 4),
                                       (50, 0), (1000, 1), (1000, 2), (7, 100, 7)])
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
        want = sum(phi(eqmeas.iterate(sysm, x, k)) for k in range(6))
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

    def test_geometry_follows_the_matrix(self, cat):
        m32 = [[3, 2], [1, 1]]
        got = dataclasses.replace(cat.system, matrix=m32)
        want = eqmeas.make_toral_automorphism(m32)
        assert np.array_equal(got.frame, want.frame)
        assert np.array_equal(got.coframe, want.coframe)
        assert got.leaf_rate == want.leaf_rate == pytest.approx(2 + np.sqrt(3.0))

    def test_inverse_is_integer_inverse(self, cat):
        assert np.array_equal(cat.system.inverse, [[1.0, -1.0], [-1.0, 2.0]])
        assert np.array_equal(cat.system.matrix @ cat.system.inverse, np.eye(2))

    @pytest.mark.parametrize("key", ["cat", "skew", "toral32"])
    def test_every_base_step_is_step_base(self, monkeypatch, key):
        # the float base map is written once, in SystemSpec._step: every caller
        # that steps float points goes through it, one call per step in the
        # directions listed, and gets the same numbers with it wrapped; evolve,
        # the leaf sums and the probe follow 64-bit phases and make no call
        sysm = systems_with_oracles()[key][0]
        rng = np.random.default_rng(4)
        pts, x = rng.random((50, sysm.dim)), rng.random(sysm.dim)
        zero = eqmeas.zero_potential()
        lm = eqmeas.reference_measure(sysm, zero, 0.0, x, 3, leaf_radius=0.5)
        runs = {  # name: (run, direction of each _step call)
            "step_fwd": (lambda: sysm.step_fwd(pts), [0]),
            "step_back": (lambda: sysm.step_back(pts[0]), [1]),
            "iterate": (lambda: eqmeas.iterate(sysm, pts, -3), [1] * 3),
            "pushforward": (lambda: eqmeas.pushforward(sysm, lm).base, [0]),
            "evolve_average": (lambda: eqmeas.evolve_average(
                sysm, zero, 0.0, x, steps=5, grid=(4,) * sysm.dim, order=3,
                leaf_radius=0.5).measure.masses, [])}
        want = {name: run() for name, (run, _) in runs.items()}
        calls = []
        step = core.SystemSpec._step

        def counted(self, pts, direction):
            calls.append(direction)
            return step(self, pts, direction)

        monkeypatch.setattr(core.SystemSpec, "_step", counted)
        for name, (run, directions) in runs.items():
            calls.clear()
            assert np.array_equal(run(), want[name]), name
            assert calls == directions, name


class TestPowerTable:
    @pytest.mark.parametrize("m", [0, 1, 64, 65, 300])
    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], [[-2, -1], [-1, -1]]],
                             ids=["cat", "neg"])
    def test_matches_integer_powers(self, cat, matrix, m):
        # A^k mod 2^64 for k <= m, across table sizes 64, 128 and 512; the
        # negative entries wrap
        sysm = cat.system if matrix[0][0] == 2 else eqmeas.make_toral_automorphism(matrix)
        assert np.array_equal(sysm.matrix, matrix)
        power = core._powers(sysm, m)
        assert power.dtype == np.uint64 and power.shape == (m + 1, 2, 2)
        want = [[1, 0], [0, 1]]
        for k in range(m + 1):
            assert power[k].tolist() == [[v % 2 ** 64 for v in row] for row in want], k
            want = [[sum(want[i][n] * matrix[n][c] for n in range(2)) for c in range(2)]
                    for i in range(2)]


class TestLeafBirkhoffSum:
    """The closed form against S_n phi on the ideal leaf, at 60 digits.

    It is no longer the float orbit of birkhoff_sum(leaf_point(...)) bit for
    bit: that orbit rounds each leaf point and each step, and the rounding
    grows with the stretch, so the closed form is held to be at least as
    close to the ideal leaf as the float orbit is."""

    PHI = eqmeas.Potential(modes=((1.0, 0, 1), (0.3, -1, 1)))  # axis -1: the last axis
    COS = eqmeas.base_cosine_potential(0.5)  # reads the base alone
    # base and fiber modes (axis -1 is a base axis of cat)
    MIXED = eqmeas.Potential(0.1, ((1.0, 0, 1), (0.4, 1, -3), (0.3, -1, 2)))
    # 16 base modes at n = 16: products of 2K = 512 terms, which a threaded BLAS splits
    WIDE = eqmeas.Potential(modes=tuple((0.05, j % 2, j - 8) for j in range(16)))

    @staticmethod
    def assert_matches_ideal_leaf(key, phi):
        sysm = systems_with_oracles()[key][0]
        rng = np.random.default_rng(12)
        # t = -1e-20 from a zero coordinate puts 1.0 in the float leaf point
        nets = [(-1e-20, 1e-20, 3), (rng.uniform(-0.5, -0.4), rng.uniform(0.02, 0.025), 40)]
        long = 3 * core.ROW + 5  # rows of atoms, not just the first
        for x in (rng.random(sysm.dim), np.full(sysm.dim, -1e-20), np.zeros(sysm.dim)):
            for start, spacing, count in nets:
                t = start + np.arange(count) * spacing
                for n in (1, 2, 7, 12):
                    want = leaf_sum_oracle(sysm, phi, x, start, spacing, range(count), n)
                    got = leaf_birkhoff_sum(sysm, phi, x, start, spacing, count, n)
                    orbit = eqmeas.birkhoff_sum(sysm, phi, eqmeas.leaf_point(sysm, x, t), n)
                    err, orbit_err = np.abs(got - want).max(), np.abs(orbit - want).max()
                    # a few ulps where the float orbit happens to be exact
                    assert err <= max(orbit_err, 4e-15), (x, start, n, err, orbit_err)
                    # rounding of order 1e-16 in the phases, grown by the stretch
                    bound = 4e-15 * (1 + sysm.leaf_rate ** (n - 1) * np.abs(t).max())
                    assert err <= bound, (x, start, n, err, bound)
                    # an atom's value does not depend on the count
                    assert np.array_equal(bits(leaf_birkhoff_sum(
                        sysm, phi, x, start, spacing, long, n)[:count]), bits(got))

    @staticmethod
    def mapped_fiber_points(key, phi, count=50):
        sysm = systems_with_oracles()[key][0]
        rows = []

        def counted(fib):
            rows.append(np.shape(fib))
            return sysm.fiber[0](fib)

        spied = dataclasses.replace(sysm, fiber=(counted, sysm.fiber[1]))
        leaf_birkhoff_sum(spied, phi, np.full(sysm.dim, 0.3), -0.1, 0.2 / 49, count, 5)
        return rows

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
    def test_matches_birkhoff_sum_of_leaf_points(self, key):
        self.assert_matches_ideal_leaf(key, self.PHI)

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
    def test_base_only_potential_matches_birkhoff_sum(self, key):
        self.assert_matches_ideal_leaf(key, self.COS)

    @pytest.mark.parametrize("key", ["skew", "slowprod"])
    def test_maps_the_shared_fiber_point_once_per_step(self, key):
        sysm = systems_with_oracles()[key][0]
        assert self.mapped_fiber_points(key, self.PHI) == [(sysm.dim - 2,)] * 4
        # several tiles of rows, one fiber orbit
        assert self.mapped_fiber_points(key, self.PHI, 3 * core.TILE * core.ROW + 5) == [
            (sysm.dim - 2,)] * 4

    @pytest.mark.parametrize("key", ["skew", "slowprod"])
    def test_base_only_potential_maps_no_fiber_point(self, key):
        assert self.mapped_fiber_points(key, self.COS) == []

    @classmethod
    def long_sums(cls, key, count=40_000):
        """Sums at the first count atoms of a 40,000-atom net: MIXED at n = 9, WIDE at n = 16."""
        sysm = systems_with_oracles()[key][0]
        x = np.random.default_rng(8).random(sysm.dim)
        return [leaf_birkhoff_sum(sysm, phi, x, -0.45, 0.9 / 40_000, count, n)
                for phi, n in ((cls.MIXED, 9), (cls.WIDE, 16))]

    @classmethod
    def long_sums_digest(cls):
        sums = [s for key in ("cat", "skew", "slowprod") for s in cls.long_sums(key)]
        return hashlib.sha256(b"".join(s.tobytes() for s in sums)).hexdigest()

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod"])
    def test_prefixes_of_a_long_net(self, monkeypatch, key):
        # an atom's value depends on neither the count (the rows, the tiles and
        # their zero padding) nor BLOCK, which leaf sums no longer read
        row, tile = core.ROW, core.TILE * core.ROW
        full = self.long_sums(key)
        for count in (1, row - 1, row, row + 1, tile - 1, tile + 1, 3 * tile + 5):
            for got, want in zip(self.long_sums(key, count), full):
                assert np.array_equal(bits(got), bits(want[:count])), count
        monkeypatch.setattr(core, "BLOCK", 1)
        assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(self.long_sums(key), full))

    def test_blas_threads(self):
        # the same long sums, bit for bit, with BLAS on one thread and on two
        script = ("import sys; sys.path[:0] = sys.argv[1:]; "
                  "from test_core import TestLeafBirkhoffSum as T; print(T.long_sums_digest())")
        here = pathlib.Path(__file__).parent
        paths, digests = [str(here), str(here.parent / "src")], []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script, *paths], env=env,
                                  capture_output=True, text=True, check=True)
            digests.append(proc.stdout.strip())
        assert digests == [self.long_sums_digest()] * 2

    def test_steps_no_point(self, cat, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("leaf sums step no point")

        for name in ("_step", "step_fwd", "step_back"):
            monkeypatch.setattr(core.SystemSpec, name, refuse)
        leaf_birkhoff_sum(cat.system, self.PHI, np.full(2, 0.3), -0.1, 1e-3, 201, 9)

    def test_accuracy_table(self, cat):
        # worst error over 40 atoms of three nets on cat at amplitude 0.05; the
        # float orbit's is 6.7e-13, 9.6e-13 and 3.3e-11
        phi, x = eqmeas.base_cosine_potential(0.05), np.array([0.2, 0.7])
        for n, r, leaf_radius, bound in ((12, 0.025, 0.005, 1e-13), (12, 0.05, 0.1, 9.6e-13),
                                         (16, 0.05, 0.1, 3.3e-11)):
            w, count = eqmeas.ball_width(cat.system, n, r), eqmeas.net_size(
                cat.system, n, r, leaf_radius)
            idx = np.linspace(0, count - 1, 40).astype(int)
            got = leaf_birkhoff_sum(cat.system, phi, x, -leaf_radius, w, count, n)[idx]
            want = leaf_sum_oracle(cat.system, phi, x, -leaf_radius, w, idx, n)
            assert np.abs(got - want).max() <= bound, (n, r, leaf_radius)


class TestPotentialTable:
    """A potential is its table (const, modes): constant_value is read off the
    table, and it evaluates with the arithmetic of the hand-written
    potentials it replaced, kept here as reference lambdas."""

    @staticmethod
    def old_constant(c):
        return lambda x: np.full(x.shape[:-1], c)

    @staticmethod
    def old_cosine(amp):
        return lambda x: amp * np.cos(2 * np.pi * x[..., 0])

    @staticmethod
    def inputs():
        rng = np.random.default_rng(21)
        edges = np.array([0.0, 1.0, -1e-20, 0.5, 0.25])
        for dim in (2, 3, 4):
            grid = np.stack(np.meshgrid(*[edges] * 2, indexing="ij"), axis=-1).reshape(-1, 2)
            yield np.concatenate([grid, rng.random((len(grid), dim - 2))], axis=-1)
            yield rng.random((7, 5, dim))
            yield rng.random(dim)  # one point: a 0-d result
            yield np.full(dim, -1e-20)

    def assert_same_bits(self, phi, ref):
        for x in self.inputs():
            got, want = phi(x), ref(x)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(bits(got), bits(want)), x

    def test_fields_are_the_table(self):
        assert [f.name for f in dataclasses.fields(eqmeas.Potential)] == ["const", "modes"]
        phi = eqmeas.constant_potential(0.3)
        assert isinstance(eqmeas.Potential.constant_value, property)
        with pytest.raises(AttributeError):
            phi.constant_value = None

    @pytest.mark.parametrize("c", [0.0, -0.0, -0.3, 2.5])
    def test_constant(self, c):
        phi = eqmeas.constant_potential(c)
        assert bits(phi.constant_value) == bits(c)
        self.assert_same_bits(phi, self.old_constant(c))

    def test_zero(self):
        phi = eqmeas.zero_potential()
        assert phi.constant_value == 0.0
        self.assert_same_bits(phi, self.old_constant(0.0))

    @pytest.mark.parametrize("q", [1.0, 0.5, 0.0])
    def test_geometric(self, cat, q):
        phi = eqmeas.geometric_potential(cat.system, q)
        c = -q * np.log(cat.system.leaf_rate)
        assert bits(phi.constant_value) == bits(c)
        self.assert_same_bits(phi, self.old_constant(c))

    @pytest.mark.parametrize("amp", [0.05, 0.5, 0.0, -0.3])
    def test_base_cosine(self, amp):
        phi = eqmeas.base_cosine_potential(amp)
        assert phi.constant_value is None  # a zero coefficient is still a mode
        self.assert_same_bits(phi, self.old_cosine(amp))

    def test_amplitude_zero_keeps_the_sign_of_minus_zero(self):
        x = np.array([[0.5, 0.1], [0.0, 0.1]])  # cos 2 pi x0 = -1, then 1
        got = eqmeas.base_cosine_potential(0.0)(x)
        assert np.array_equal(np.signbit(got), [True, False])

    @pytest.mark.parametrize("modes", [((0.1, 2, 1),), ((0.1, 3, 2),), ((0.1, -1, 1),),
                                       ((0.1, -2, 1),), ((1.0, 0, 1), (0.3, -1, 1))])
    def test_fiber_or_negative_axis_is_not_base_only(self, modes):
        # read mod dim, each of these axes is a fiber axis of the 4-d system,
        # so its leaf sum maps the shared fiber point at every step
        phi = eqmeas.Potential(modes=modes)
        assert TestLeafBirkhoffSum.mapped_fiber_points("slowprod", phi) == [(2,)] * 4

    @pytest.mark.parametrize("k", [0.5, 1.25, -2.5])
    def test_frequencies_are_integers(self, k):
        # the leaf sums add phases mod 1, which is the potential only for integer k
        with pytest.raises(ValueError, match="frequencies must be integers"):
            eqmeas.Potential(modes=((0.1, 0, k),))
        eqmeas.Potential(modes=((0.1, 0, float(int(k))), (0.1, 1, -3)))

    @pytest.mark.parametrize("c", [-0.3, 0.0, 1.5])
    def test_frequency_zero_mode_is_not_constant(self, c):
        phi = eqmeas.Potential(modes=((c, 0, 0),))
        assert phi.constant_value is None
        x = np.random.default_rng(4).random((9, 3))
        assert np.array_equal(phi(x), np.full(9, c))
