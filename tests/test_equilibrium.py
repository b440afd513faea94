"""Evolved measures, Gibbs ratios, holonomy, disintegration, probes."""

import dataclasses
import functools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import eqmeas
import oracles
from eqmeas import caratheodory, core, equilibrium
from eqmeas.equilibrium import _bin_index
from oracles import (bin_index_oracle, birkhoff_probe_oracle, cos_turns_oracle,
                     density_vs_reference_oracle, disintegrate_oracle, evolve_oracle, exact_landing, gibbs_inside_oracle,
                     gibbs_ratio_oracle, net_words_oracle, systems_with_oracles, toral_steps)

LAM = (3 + np.sqrt(5.0)) / 2
H = np.log(LAM)
X0 = np.array([0.2, 0.7])
# minus the cat matrix: unstable eigenvalue -LAM, and f(x) = -(cat x)
NEG = [[-2, -1], [-1, -1]]


class TestPhaseMeasure:
    def test_uniform(self):
        pm = eqmeas.PhaseMeasure.uniform((4, 8))
        assert pm.total() == pytest.approx(1.0)
        assert pm.masses.size == 32

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            eqmeas.PhaseMeasure((2, 2), np.array([1.0, 1.0, 1.0, 1.0]))

    def test_rejects_grid_mismatch(self):
        with pytest.raises(ValueError):
            eqmeas.PhaseMeasure((2, 3), np.full(4, 0.25))

    def test_from_points_counts(self):
        pts = np.array([[0.1, 0.1], [0.1, 0.9], [0.6, 0.6], [0.6, 0.7]])
        pm = eqmeas.PhaseMeasure.from_points(pts, (2, 2))
        assert pm.reshaped() == pytest.approx(
            np.array([[0.25, 0.25], [0.0, 0.5]]))

    def test_from_points_weighted(self):
        pts = np.array([[0.1, 0.1], [0.9, 0.9]])
        pm = eqmeas.PhaseMeasure.from_points(pts, (2, 2),
                                             weights=np.array([3.0, 1.0]))
        assert pm.reshaped()[0, 0] == pytest.approx(0.75)

    @pytest.mark.parametrize("grid", [(4, 4), (16, 16, 8), (8, 8, 8, 8)])
    def test_sample_draws_the_bins_of_rng_choice(self, grid):
        # the same bins and jitter as rng.choice(p=masses) at the same seed, on
        # measures with empty bins, and on a second call that reuses the cdf
        rng = np.random.default_rng(len(grid))
        masses = rng.random(int(np.prod(grid))) * (rng.random(int(np.prod(grid))) < 0.7)
        mu = eqmeas.PhaseMeasure(grid, masses / masses.sum())
        for seed in range(3):
            got, want = np.random.default_rng(seed), np.random.default_rng(seed)
            for count in (1, 64, 1000):
                flat = want.choice(mu.masses.size, size=count, p=mu.masses)
                coords = np.column_stack(np.unravel_index(flat, grid)).astype(float)
                expect = (coords + want.random((count, len(grid)))) / np.asarray(grid, dtype=float)
                assert np.array_equal(mu.sample(count, got), expect)

    def test_edge_points_clamp_to_last_bin(self):
        pm = eqmeas.PhaseMeasure.from_points(np.array([[1.0 - 1e-16, 0.5]]),
                                             (4, 4))
        assert pm.reshaped()[3, 2] == pytest.approx(1.0)

    # unchecked, a coordinate above 1 bins as the last bin of its axis (1.5 in
    # bin 12 of a 4 x 4 grid, where 0.5 goes in bin 8) and one below 0 gives a
    # negative bin; 1.0 stays allowed, as mod1 can return it
    OUTSIDE = ([[1.5, 0.2]], [[-0.5, 0.2]], [[0.5, -1e-300]], [[0.5, np.nan]])

    @pytest.mark.parametrize("pts", OUTSIDE)
    def test_from_points_rejects_points_outside_the_unit_cube(self, pts):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            eqmeas.PhaseMeasure.from_points(np.array(pts), (4, 4))
        pm = eqmeas.PhaseMeasure.from_points(np.array([[1.0, 0.5]]), (4, 4))
        assert pm.reshaped()[3, 2] == 1.0

    @pytest.mark.parametrize("pts", OUTSIDE)
    def test_density_rejects_points_outside_the_unit_cube(self, pts):
        pm = eqmeas.PhaseMeasure.from_points(np.array([[0.1, 0.1]]), (4, 4))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            pm.density(np.array(pts))
        assert pm.density(np.array([[0.0, 1.0], [0.1, 0.1]])).tolist() == [0.0, 16.0]

    @pytest.mark.parametrize("pts", OUTSIDE)
    def test_bin_index_rejects_points_outside_the_unit_cube(self, pts):
        pm = eqmeas.PhaseMeasure.uniform((4, 4))
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            pm.bin_index(np.array(pts))
        assert pm.bin_index(np.array([[1.0, 1.0], [0.5, 0.0]])).tolist() == [15, 8]

    def test_tv_properties(self):
        a = eqmeas.PhaseMeasure.uniform((4, 4))
        b = eqmeas.PhaseMeasure.from_points(np.array([[0.1, 0.1]]), (4, 4))
        assert a.tv(a) == 0.0
        assert a.tv(b) == b.tv(a)
        assert 0 < a.tv(b) <= 1.0

    def test_tv_rejects_different_grids(self):
        a = eqmeas.PhaseMeasure.uniform((4, 4))
        b = eqmeas.PhaseMeasure.uniform((8, 8))
        with pytest.raises(ValueError):
            a.tv(b)

    def test_marginal_single_axis(self):
        pts = np.array([[0.1, 0.3], [0.1, 0.8], [0.7, 0.3]])
        pm = eqmeas.PhaseMeasure.from_points(pts, (2, 2))
        m0 = pm.reshaped().sum(axis=1)
        assert m0 == pytest.approx([2 / 3, 1 / 3])

    def test_marginal_multi_axis(self):
        pm = eqmeas.PhaseMeasure.uniform((2, 3, 4))
        joint = pm.reshaped().sum(axis=1)
        assert joint.shape == (2, 4)
        assert joint.sum() == pytest.approx(1.0)

    def test_coarsen(self):
        pm = eqmeas.PhaseMeasure.uniform((8, 8))
        merged = pm.reshaped().reshape(4, 2, 4, 2).sum(axis=(1, 3))
        c = eqmeas.PhaseMeasure((4, 4), merged)
        assert c.grid == (4, 4)
        assert c.total() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            eqmeas.PhaseMeasure((3, 4), merged)

    def test_density_scales_by_volume(self):
        pm = eqmeas.PhaseMeasure.uniform((5, 5))
        probe = np.array([[0.1, 0.1], [0.5, 0.9]])
        assert pm.density(probe) == pytest.approx(np.ones(2))
        half = eqmeas.PhaseMeasure.from_points(np.array([[0.1, 0.1]]), (2, 2))
        assert half.density(np.array([[0.2, 0.2]]))[0] == pytest.approx(4.0)

    def test_sample_lands_in_support(self):
        pm = eqmeas.PhaseMeasure.from_points(np.array([[0.1, 0.9]]), (4, 4))
        pts = pm.sample(50, np.random.default_rng(0))
        assert pts.shape == (50, 2)
        assert np.all((pts[:, 0] >= 0.0) & (pts[:, 0] < 0.25))
        assert np.all((pts[:, 1] >= 0.75) & (pts[:, 1] < 1.0))


class TestRectangle:
    def test_contains_anchor(self, cat):
        rect = eqmeas.Rectangle(sys=cat.system, anchor=X0, du=0.1, dcs=0.1)
        assert rect.contains(X0[None])[0]

    def test_membership_by_frame_coordinates(self, cat):
        sysm = cat.system
        rect = eqmeas.Rectangle(sys=sysm, anchor=X0, du=0.1, dcs=0.1)
        inside = eqmeas.mod1(X0 + 0.09 * sysm.frame[0] - 0.09 * sysm.frame[1])
        outside = eqmeas.mod1(X0 + 0.11 * sysm.frame[0])
        assert rect.contains(inside[None])[0]
        assert not rect.contains(outside[None])[0]

    def test_volume(self, cat):
        rect = eqmeas.Rectangle(sys=cat.system, anchor=X0, du=0.1, dcs=0.2)
        assert rect.volume() == pytest.approx(0.2 * 0.4, rel=1e-9)


class TestPushforward:
    def test_mass_conserved(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 6)
        fm = eqmeas.pushforward(cat.system, lm)
        assert fm.mass() == pytest.approx(lm.mass(), rel=1e-12)

    def test_atoms_map_forward(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 6)
        fm = eqmeas.pushforward(cat.system, lm)
        want = cat.system.step_fwd(lm.points())
        assert np.abs(eqmeas.wrap(fm.points() - want)).max() < 1e-10

    def test_params_stretch_by_multiplier(self, cat, phi0):
        lm = eqmeas.reference_measure(cat.system, phi0, H, X0, 6)
        fm = eqmeas.pushforward(cat.system, lm)
        assert fm.params == pytest.approx(lm.params * LAM, rel=1e-12)

    def test_negative_eigenvalue_flips_and_reverses(self):
        neg = eqmeas.make_toral_automorphism(NEG)
        assert neg.eigenvalue == pytest.approx(-LAM) and neg.leaf_rate == pytest.approx(LAM)
        lm = eqmeas.reference_measure(neg, eqmeas.base_cosine_potential(0.05), H, X0, 6)
        fm = eqmeas.pushforward(neg, lm)
        # atom i of the image is the image of atom count - 1 - i, so params ascend
        want = neg.step_fwd(lm.points())[::-1]
        assert np.abs(eqmeas.wrap(fm.points() - want)).max() < 1e-10
        assert fm.params == pytest.approx(-LAM * lm.params[::-1], rel=1e-12)
        assert np.all(np.diff(fm.params) > 0)
        assert np.array_equal(fm.weights, lm.weights[::-1])


class TestScaling:
    def test_maximal_entropy_potential(self, cat, phi0):
        out = eqmeas.scaling_check(cat.system, phi0, H, X0)
        assert out["deviation"] < 1e-6

    def test_geometric_potential(self, cat):
        phi = eqmeas.geometric_potential(cat.system)
        out = eqmeas.scaling_check(cat.system, phi, 0.0, X0)
        assert out["deviation"] < 1e-6


def assert_same_evolve(got, want, marks=(1, 2, 5, 6)):
    assert np.array_equal(got.measure.masses, want.measure.masses)
    assert sorted(got.snapshots) == sorted(want.snapshots) == list(marks)
    for n, snap in want.snapshots.items():
        assert np.array_equal(got.snapshots[n].masses, snap.masses), n


# the five systems on power-of-two grids, whose bins are the phases' top bits,
# and on grids with axes that are not, whose bins take the full product
EVOLVE_CASES = [
    ("cat", [0.2, 0.7], (8, 8)),
    ("skew", [0.2, 0.7, 0.37], (8, 8, 4)),
    ("slowprod", [0.2, 0.7, 0.13, 0.86], (4, 4, 4, 4)),
    ("toral32", [0.2, 0.7], (8, 8)),
    ("signed", [0.2, 0.7], (8, 8))]
ODD_GRIDS = {"cat": (7, 5), "skew": (7, 5, 3), "slowprod": (7, 5, 3, 3),
             "toral32": (255, 3), "signed": (7, 5)}
STEPS = 200


def evolve_across_blocks(monkeypatch, sysm, x, **kw):
    """evolve_average at BLOCK 7 (ragged blocks), 64 and the default, checked
    bit-identical; returns the default's result."""
    outs = []
    for block in (7, 64, core.BLOCK):
        monkeypatch.setattr(core, "BLOCK", block)
        outs.append(eqmeas.evolve_average(sysm, eqmeas.zero_potential(),
                                          float(np.log(sysm.leaf_rate)), x, **kw))
    for out in outs[:-1]:
        assert_same_evolve(out, outs[-1], sorted(outs[-1].snapshots))
    return outs[-1]


class TestEvolveAverage:
    def test_cat_limit_is_near_lebesgue(self, cat_mu40):
        unif = eqmeas.PhaseMeasure.uniform((32, 32))
        assert cat_mu40.measure.tv(unif) < 0.05

    def test_reports_atom_count_and_steps(self, cat_mu40, cat, phi0):
        assert cat_mu40.steps == 40
        assert cat_mu40.atom_count == 231120
        m_x = eqmeas.reference_measure(cat.system, phi0, H, X0, 10, leaf_radius=1.0)
        assert m_x.mass() == pytest.approx(15.279, abs=1e-2)

    def test_checkpoints_converge(self, cat, phi0):
        res = eqmeas.evolve_average(cat.system, phi0, H, X0, steps=20,
                                    grid=(32, 32), order=10, leaf_radius=1.0,
                                    checkpoints=(5, 10, 20))
        tvs = [tv for _, tv in eqmeas.convergence_profile(res)]
        assert tvs[-1] == 0.0
        assert tvs[0] >= tvs[1]

    def test_skew_limit(self, skew_mu40):
        unif = eqmeas.PhaseMeasure.uniform((16, 16, 8))
        assert skew_mu40.measure.tv(unif) < 0.1

    def test_pairwise_independence_of_base_point(self, cat, phi0):
        out = eqmeas.pairwise_evolve_tv(
            cat.system, phi0, H,
            [X0, np.array([0.61, 0.13])],
            steps=40, grid=(32, 32), order=10, leaf_radius=1.0)
        assert out["max_tv"] < 0.1

    @pytest.mark.parametrize("key,x,grid", EVOLVE_CASES)
    def test_matches_full_atom_oracle(self, phi0, monkeypatch, key, x, grid):
        # every atom's bin at every step up to STEPS, against its exact orbit:
        # every 6th of 359 atoms (every 17th of 1,040 on toral32)
        sysm, (fwd, _) = systems_with_oracles()[key]
        h = float(np.log(sysm.leaf_rate))
        monkeypatch.setattr(equilibrium, "ATOM_BUDGET", 64)
        kw = dict(steps=STEPS, grid=grid, order=4, r=0.05, leaf_radius=0.5,
                  checkpoints=range(1, STEPS + 1))
        want = evolve_oracle(sysm, fwd, phi0, h, np.array(x), atom_budget=64, **kw)
        got = evolve_across_blocks(monkeypatch, sysm, np.array(x), **kw)
        assert got.thin == want.thin > 1
        assert got.atom_count == want.atom_count
        assert got.measure.grid == want.measure.grid == grid
        assert_same_evolve(got, want, range(1, STEPS + 1))

    @pytest.mark.parametrize("key", ODD_GRIDS)
    def test_bins_on_axes_that_are_not_powers_of_two(self, phi0, monkeypatch, key):
        # floor(Z g / 2^64) needs the low half of Z: (Z >> 32) g >> 32 alone
        # puts the first atom, just above the cut of bin 1, in bin 0
        sysm, (fwd, _) = systems_with_oracles()[key]
        h, x = float(np.log(sysm.leaf_rate)), np.array(dict(
            (k, x) for k, x, _ in EVOLVE_CASES)[key])
        g, e = ODD_GRIDS[key][0], Fraction(float(sysm.frame[0, 0]))
        x[0] = float(Fraction(1, g) + e / 2)  # the first atom is at x - e_u / 2

        def phase():
            return math.floor((Fraction(float(x[0])) - e / 2) * 2 ** 64)

        while phase() < -(-2 ** 64 // g):
            x[0] = np.nextafter(x[0], np.inf)
        assert (phase() >> 32) * g >> 32 == 0
        monkeypatch.setattr(equilibrium, "ATOM_BUDGET", 64)
        kw = dict(steps=STEPS, grid=ODD_GRIDS[key], order=4, r=0.05, leaf_radius=0.5,
                  checkpoints=range(1, STEPS + 1))
        want = evolve_oracle(sysm, fwd, phi0, h, x, atom_budget=64, **kw)
        assert_same_evolve(evolve_across_blocks(monkeypatch, sysm, x, **kw), want,
                           range(1, STEPS + 1))

    @pytest.mark.parametrize("leaf", ["generic", "edge"])
    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("key,x,grid", EVOLVE_CASES)
    def test_matches_oracle_across_blocks(self, phi0, monkeypatch, key, x, grid,
                                          block, leaf):
        sysm, (fwd, _) = systems_with_oracles()[key]
        h = float(np.log(sysm.leaf_rate))
        monkeypatch.setattr(core, "BLOCK", block)
        kw = dict(steps=6, grid=grid, r=0.05, leaf_radius=0.5, checkpoints=(1, 2, 5, 6))
        if leaf == "generic":  # 359 atoms (1,040 on toral32): a ragged last block
            x, kw["order"] = np.array(x), 4
        else:
            # order 1 puts an atom at t = 0, whose phases are all 2^64 - 1
            # (floor of -1e-20 2^64): the last bin of every axis, with no clamp
            x, kw["order"] = np.full(sysm.dim, -1e-20), 1
            assert 0.0 in eqmeas.reference_measure(sysm, phi0, h, x, 1, r=0.05,
                                                   leaf_radius=0.5).params
        want = evolve_oracle(sysm, fwd, phi0, h, x, **kw)
        got = eqmeas.evolve_average(sysm, phi0, h, x, **kw)
        assert got.atom_count == want.atom_count
        if leaf == "generic":
            assert got.atom_count > block and got.atom_count % block
        assert_same_evolve(got, want)

    def test_signed_matrix_clamps_after_the_first_step(self, phi0):
        # the order-1 atom at t = 0 sits at x, of phases (16, 33); one step of
        # M_SIGNED takes it to 2 16 - 33 = -1, the phase 2^64 - 1 of the last
        # bin, where the float step gave 1.0 and needed the clamp of _bin_index
        sysm, (fwd, _) = systems_with_oracles()["signed"]
        x = np.array([2.0 ** -60, 2.0 ** -59 + 2.0 ** -64])
        assert eqmeas.mod1(sysm.matrix @ x)[0] == 1.0
        h = float(np.log(sysm.leaf_rate))
        kw = dict(steps=6, grid=(8, 8), order=1, r=0.05, leaf_radius=0.5,
                  checkpoints=(1, 2, 5, 6))
        want = evolve_oracle(sysm, fwd, phi0, h, x, **kw)
        got = eqmeas.evolve_average(sysm, phi0, h, x, **kw)
        assert_same_evolve(got, want)
        assert got.snapshots[2].reshaped()[7].sum() > 0  # step 1 lands in the last row

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod"])
    def test_steps_no_point(self, monkeypatch, key):
        # the base follows 64-bit phases and the fiber point its own map, so
        # no float point is stepped
        def refuse(*args, **kwargs):
            raise AssertionError("evolve steps no float point")

        sysm = eqmeas.get_system(key).system
        for name in ("_step", "step_fwd", "step_back"):
            monkeypatch.setattr(core.SystemSpec, name, refuse)
        eqmeas.evolve_average(sysm, eqmeas.base_cosine_potential(0.05),
                              float(np.log(sysm.leaf_rate)), np.full(sysm.dim, 0.3),
                              steps=5, grid=(4,) * sysm.dim, order=4, leaf_radius=0.5)

    @pytest.mark.parametrize("make", [
        lambda sysm: eqmeas.zero_potential(),
        lambda sysm: eqmeas.constant_potential(0.3),
        lambda sysm: eqmeas.geometric_potential(sysm, 0.5),
    ], ids=["zero", "const", "geom"])
    def test_constant_potential_builds_no_net(self, cat, monkeypatch, make):
        def refuse(*args, **kwargs):
            raise AssertionError("net built for a constant potential")

        monkeypatch.setattr(caratheodory, "separated_net", refuse)
        res = eqmeas.evolve_average(cat.system, make(cat.system), H, X0, steps=3,
                                    grid=(32, 32), order=10, leaf_radius=1.0)
        assert res.atom_count == 231120

    @pytest.mark.parametrize("grid", [(8, 8), (8, 8, 8, 8)])
    def test_rejects_grid_of_wrong_length(self, skew, phi0, grid):
        with pytest.raises(ValueError, match=f"grid has {len(grid)} axes.*dim 3"):
            eqmeas.evolve_average(skew.system, phi0, skew.h_top,
                                  np.array([0.2, 0.7, 0.37]), steps=2, grid=grid,
                                  order=4, leaf_radius=0.5)


def run_blocks(sysm, x, grid, steps, order, leaf_radius, thin=1, r=0.05):
    """(B, signs of the two D_k) at each step k < steps, from Python integers: B is
    the largest power of two with B |D_k| < 2^64 // g on both base axes, D_k read
    as signed, and 0 when there is none."""
    d = [v * thin % 2 ** 64 for v in net_words_oracle(sysm, x, order, r, leaf_radius)[1]]
    (m00, m01), (m10, m11) = np.rint(sysm.matrix).astype(int).tolist()
    out = []
    for k in range(steps):
        if k:
            d = [(m00 * d[0] + m01 * d[1]) % 2 ** 64, (m10 * d[0] + m11 * d[1]) % 2 ** 64]
        signed = [v - 2 ** 64 if v >= 2 ** 63 else v for v in d]
        b = 0
        while all(max(2 * b, 1) * abs(v) < 2 ** 64 // g for v, g in zip(signed, grid)):
            b = max(2 * b, 1)
        out.append((b, tuple(v > 0 for v in signed)))
    return out


def run_systems():
    """systems_with_oracles, and minus the cat matrix, whose D_k changes sign every step."""
    return {**systems_with_oracles(),
            "neg": (eqmeas.make_toral_automorphism(NEG), toral_steps(NEG))}


# nets where most steps count atoms by runs: (system, x, grid, order, leaf
# radius, steps, the steps with B >= RUN_MIN)
RUN_CASES = [
    ("cat", [0.2, 0.7], (8, 8), 8, 0.5, 12, range(6)),  # 16,860 atoms
    ("signed", [0.2, 0.7], (8, 8), 8, 0.5, 8, range(6)),  # D_k < 0 on axis 1
    ("neg", [0.2, 0.7], (8, 8), 8, 0.5, 8, range(6)),
    ("slowprod", [0.2, 0.7, 0.13, 0.86], (8, 8, 4, 4), 8, 0.5, 8, range(6)),
    ("cat", [0.2, 0.7], (7, 5), 8, 0.5, 8, range(6)),  # cell edges from the table
    ("cat", [0.2, 0.7], (255, 3), 10, 0.05, 6, range(4))]  # 11,556 atoms


class TestEvolveRuns:
    """A constant potential's atoms, counted by runs, give the bytes of the
    atom-by-atom sums."""

    @pytest.mark.parametrize("key,x,grid,order,radius,steps,runs", RUN_CASES)
    def test_matches_oracle(self, phi0, monkeypatch, key, x, grid, order, radius, steps,
                            runs):
        sysm, (fwd, _) = run_systems()[key]
        blocks = run_blocks(sysm, x, grid, steps, order, radius)
        assert [k for k, (b, _) in enumerate(blocks) if b >= equilibrium.RUN_MIN] == list(runs)
        if key == "signed":
            assert all(signs == (True, False) for _, signs in blocks)
        if key == "neg":
            assert all(signs == (k % 2 == 0,) * 2 for k, (_, signs) in enumerate(blocks))
        kw = dict(steps=steps, grid=grid, order=order, r=0.05, leaf_radius=radius,
                  checkpoints=range(1, steps + 1))
        want = evolve_oracle(sysm, fwd, phi0, float(np.log(sysm.leaf_rate)), np.array(x), **kw)
        got = evolve_across_blocks(monkeypatch, sysm, np.array(x), **kw)
        assert_same_evolve(got, want, range(1, steps + 1))

    def test_thinned_net(self, phi0, monkeypatch):
        # every 17th atom of 16,860: D_k is 17 times the net's, and B with it
        sysm, (fwd, _) = run_systems()["cat"]
        x = [0.2, 0.7]
        monkeypatch.setattr(equilibrium, "ATOM_BUDGET", 1000)
        blocks = run_blocks(sysm, x, (8, 8), 5, 8, 0.5, thin=17)
        assert [b >= equilibrium.RUN_MIN for b, _ in blocks] == [True] * 3 + [False] * 2
        kw = dict(steps=5, grid=(8, 8), order=8, r=0.05, leaf_radius=0.5,
                  checkpoints=range(1, 6))
        want = evolve_oracle(sysm, fwd, phi0, H, np.array(x), atom_budget=1000, **kw)
        got = evolve_across_blocks(monkeypatch, sysm, np.array(x), **kw)
        assert (got.thin, got.atom_count) == (want.thin, want.atom_count) == (17, 992)
        assert_same_evolve(got, want, range(1, 6))

    @pytest.mark.parametrize("offset", [0, -1], ids=["on", "below"])
    @pytest.mark.parametrize("grid", [(8, 8), (7, 5)])
    @pytest.mark.parametrize("key", ["cat", "signed", "neg"])
    def test_atoms_on_cell_edges(self, phi0, monkeypatch, key, grid, offset):
        # words of a net whose atom 5 is at the first phase of cell 1 on axis 0
        # (or one below) and atom 9 at that of cell 3 on axis 1, where D < 0 (or
        # one below): a crossing one atom early or late moves an atom's cell.  Step
        # 0 counts the net's 16,860 atoms by runs, B = 2^10 on both grids; at step
        # 1, D is 0 on axis 1 on cat and neg
        sysm, (fwd, _) = run_systems()[key]
        a, (e0, e1) = 2 ** 50, (-(-(c << 64) // g) for c, g in zip((1, 3), grid))
        p, d = [e0 + offset - 5 * a, e1 + offset + 9 * a], [a, 2 ** 64 - a]
        monkeypatch.setattr(equilibrium, "_net_phases", lambda *args: (
            np.array([p, d], dtype=np.uint64).T, np.zeros((2, 2))))
        monkeypatch.setattr(oracles, "net_words_oracle", lambda *args: (p, d))
        kw = dict(steps=4, grid=grid, order=8, r=0.05, leaf_radius=0.5,
                  checkpoints=(1, 2, 3, 4))
        want = evolve_oracle(sysm, fwd, phi0, float(np.log(sysm.leaf_rate)), X0, **kw)
        assert_same_evolve(evolve_across_blocks(monkeypatch, sysm, X0, **kw), want, (1, 2, 3, 4))

    @pytest.mark.parametrize("order,radius,atoms", [(12, 5e-7, 1), (10, 0.002, 463)],
                             ids=["one-atom", "one-cell"])
    def test_net_in_one_cell_holds_the_sequential_sum(self, cat, monkeypatch, order, radius,
                                                      atoms):
        # the cell of n atoms holds S[n]: n weights added one by one to 0.0
        x = np.array([2.5, 5.5]) / 8  # a cell's centre
        assert run_blocks(cat.system, x, (8, 8), 1, order, radius)[0][0] >= equilibrium.RUN_MIN
        got = evolve_across_blocks(monkeypatch, cat.system, x, steps=1, grid=(8, 8),
                                   order=order, r=0.05, leaf_radius=radius)
        v = caratheodory.atom_weight(0.0, float(np.log(cat.system.leaf_rate)), order)
        w, total = v / caratheodory.equal_mass(v, atoms), 0.0
        for _ in range(atoms):
            total += w
        assert got.atom_count == atoms
        assert np.flatnonzero(got.measure.masses).tolist() == [2 * 8 + 5]
        assert got.measure.masses[2 * 8 + 5] == total

    def test_cells_hold_the_sequential_sums(self, cat, phi0):
        # every count of the 16,860-atom net's first step: S[n] for its n atoms
        x, order = [0.2, 0.7], 8
        p, d = net_words_oracle(cat.system, x, order, 0.05, 0.5)
        atoms = eqmeas.net_size(cat.system, order, 0.05, 0.5)
        cells = [((p[0] + i * d[0]) % 2 ** 64 >> 61) * 8 + ((p[1] + i * d[1]) % 2 ** 64 >> 61)
                 for i in range(atoms)]
        counts = np.bincount(cells, minlength=64)
        got = eqmeas.evolve_average(cat.system, phi0, H, np.array(x), steps=1, grid=(8, 8),
                                    order=order, leaf_radius=0.5)
        v = caratheodory.atom_weight(0.0, H, order)
        w = v / caratheodory.equal_mass(v, atoms)
        sums = [0.0]
        for _ in range(counts.max()):
            sums.append(sums[-1] + w)
        assert len(set(counts[counts > 0])) > 10
        assert got.measure.masses.tolist() == [sums[n] for n in counts]

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod"])
    def test_switch_leaves_the_bytes(self, monkeypatch, key):
        # the CLI's default evolve nets at every B, at none and at the default switch
        spec = eqmeas.get_system(key)
        x = {"cat": [0.2, 0.7], "skew": [0.2, 0.7, 0.37], "slowprod": [0.2, 0.7, 0.13, 0.86]}
        grid = {"cat": (32, 32), "skew": (16, 16, 8), "slowprod": (16,) * 4}[key]
        outs = []
        for least in (2, equilibrium.RUN_MIN, 2 ** 62):
            monkeypatch.setattr(equilibrium, "RUN_MIN", least)
            outs.append(eqmeas.evolve_average(
                spec.system, eqmeas.zero_potential(), spec.h_top, np.array(x[key]), steps=40,
                grid=grid, order=10, leaf_radius=1.0, checkpoints=(10, 20, 40)))
        for out in outs[:-1]:
            assert_same_evolve(out, outs[-1], (10, 20, 40))

    def test_runs_count_by_bincount(self, phi0, monkeypatch):
        # one bincount a run step (one chunk at the default block), none without runs
        calls, bincount = [], np.bincount

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return bincount(*args, **kwargs)

        monkeypatch.setattr(np, "bincount", spy)
        kw = dict(steps=12, grid=(8, 8), order=8, leaf_radius=0.5)
        want = eqmeas.evolve_average(run_systems()["cat"][0], phi0, H, X0, **kw)
        assert len(calls) == 6 and max(calls) < 16_860 // 4
        calls.clear()
        monkeypatch.setattr(equilibrium, "RUN_MIN", 2 ** 62)
        assert_same_evolve(eqmeas.evolve_average(run_systems()["cat"][0], phi0, H, X0, **kw),
                           want, ())
        assert calls == []

    def test_non_constant_potential_adds_atom_by_atom(self, cat, monkeypatch):
        # its weights differ, so runs would round otherwise: even at B >= 1 no runs
        monkeypatch.setattr(np, "bincount", None)
        phi = eqmeas.base_cosine_potential(0.05)
        kw = dict(steps=8, grid=(8, 8), order=8, leaf_radius=0.5, checkpoints=(1, 2, 5, 6))
        monkeypatch.setattr(equilibrium, "RUN_MIN", 1)
        got = eqmeas.evolve_average(cat.system, phi, H, X0, **kw)
        monkeypatch.undo()
        want = evolve_oracle(cat.system, run_systems()["cat"][1][0], phi, H, X0, **kw)
        assert_same_evolve(got, want)


class TestBinIndex:
    EDGE = [0.0, 1 - 2.0 ** -53, eqmeas.mod1(-1e-20), 0.5, 0.25, 0.999]

    @pytest.mark.parametrize("grid", [(8, 8), (32, 7), (16, 16, 8), (5, 3, 9, 2),
                                      (16, 16, 16, 16)])
    def test_matches_oracle(self, grid):
        rng = np.random.default_rng(len(grid))
        pts = rng.random((5000, len(grid)))
        assert np.array_equal(_bin_index(pts, grid), bin_index_oracle(pts, grid))
        edges = np.array(np.meshgrid(*[self.EDGE] * len(grid), indexing="ij"))
        edges = edges.reshape(len(grid), -1).T
        assert edges.max() == 1.0
        assert np.array_equal(_bin_index(edges, grid), bin_index_oracle(edges, grid))


class TestGibbsRatio:
    def test_cat_ratios_are_flat_and_bounded(self, cat, phi0, cat_mu40):
        rep = eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H)
        assert rep.qhat_max < 4.0
        assert abs(rep.trend) < 0.02
        assert not rep.flagged()
        assert list(rep.orders) == [3, 4, 5, 6, 7, 8]

    def test_report_shapes(self, cat, phi0, cat_mu40):
        rep = eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H,
                                 orders=range(3, 6), n_centers=4, n_mc=1024)
        assert len(rep.qhat) == 3
        assert len(rep.centers) == 4
        assert np.all(rep.qhat >= 1.0)

    def test_seed_reproducible(self, cat, phi0, cat_mu40):
        a = eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H,
                               orders=range(3, 5), n_centers=3, n_mc=512,
                               seed=7)
        b = eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H,
                               orders=range(3, 5), n_centers=3, n_mc=512,
                               seed=7)
        assert a.qhat == pytest.approx(b.qhat)


    @staticmethod
    def _assert_same_report(got, want):
        for f in dataclasses.fields(eqmeas.GibbsReport):
            assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name

    @pytest.mark.parametrize("pot", ["cos", "geom"])
    @pytest.mark.parametrize("points", [1, 3 * 64, 7 * 64], ids=["1", "3", "all"])
    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
    def test_matches_per_centre_oracle(self, monkeypatch, key, points, pot):
        # 7 centres of 64 cloud points: groups of 1, of 3 (3 + 3 + 1) or all 7
        sysm = systems_with_oracles()[key][0]
        masses = np.random.default_rng(4).random(6 ** sysm.dim)
        mu = eqmeas.PhaseMeasure((6,) * sysm.dim, masses / masses.sum())
        phi = (eqmeas.base_cosine_potential(0.3) if pot == "cos"
               else eqmeas.geometric_potential(sysm, 0.7))
        kw = dict(orders=[1, 2, 4, 5], n_centers=7, n_mc=64, seed=5)
        monkeypatch.setattr(equilibrium, "GIBBS_POINTS", points)
        self._assert_same_report(eqmeas.gibbs_ratio(sysm, phi, mu, 0.9, **kw),
                                 gibbs_ratio_oracle(sysm, phi, mu, 0.9, **kw))

    def test_matches_per_centre_oracle_with_floored_cells(self, cat, phi0, cat_mu40,
                                                          monkeypatch):
        kw = dict(orders=range(3, 17), n_centers=5, n_mc=256, seed=2)
        monkeypatch.setattr(equilibrium, "GIBBS_POINTS", 2 * 256)
        want = gibbs_ratio_oracle(cat.system, phi0, cat_mu40.measure, H, **kw)
        assert want.floored.any()
        self._assert_same_report(
            eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H, **kw), want)

    @pytest.mark.parametrize("points", [64, 8 * 64], ids=["1", "all"])
    @pytest.mark.parametrize("pot", ["cos", "geom"])
    @pytest.mark.parametrize("key", ["cat", "slowprod"])
    def test_follows_only_the_points_inside(self, monkeypatch, key, pot, points):
        # each step maps a group's centres and from 1 to 2 times as many cloud
        # points as are still inside the Bowen ball (the halving rule); a
        # constant phi steps nothing of a group once all its points have left
        sysm = dataclasses.replace(systems_with_oracles()[key][0])
        masses = np.random.default_rng(4).random(6 ** sysm.dim)
        mu = eqmeas.PhaseMeasure((6,) * sysm.dim, masses / masses.sum())
        phi = (eqmeas.base_cosine_potential(0.3) if pot == "cos"
               else eqmeas.geometric_potential(sysm, 0.7))
        n_max = 13  # every point of every centre has left by then
        kw = dict(orders=range(2, n_max + 1), n_centers=7, n_mc=64, seed=5)
        centers, inside = gibbs_inside_oracle(sysm, mu, **kw)
        path = [centers]  # path[n - 1]: the centres at order n
        for _ in range(n_max - 1):
            path.append(sysm.step_fwd(path[-1]))
        calls, step = [], sysm.step_fwd
        sysm.step_fwd = lambda pts: (calls.append(pts.copy()), step(pts))[1]
        monkeypatch.setattr(equilibrium, "GIBBS_POINTS", points)
        eqmeas.gibbs_ratio(sysm, phi, mu, 0.9, **kw)

        g = points // 64
        want = [(lo, n) for lo in range(0, 7, g) for n in range(2, n_max + 1)
                if pot == "cos" or inside[lo:lo + g, n - 2].any()]
        assert len(calls) == len(want)
        rows = {}
        for pts, (lo, n) in zip(calls, want):
            k, live = len(centers[lo:lo + g]), inside[lo:lo + g, n - 2].sum()
            assert np.array_equal(pts[:k], path[n - 2][lo:lo + g])  # the group at order n - 1
            assert live <= len(pts) - k <= 2 * live
            rows.setdefault(lo, []).append(len(pts))
        for lo, mapped in rows.items():
            k = len(centers[lo:lo + g])
            assert mapped == sorted(mapped, reverse=True) and mapped[0] <= k * (1 + 64)
        if pot == "geom":  # the last order steps no group
            assert max(n for _, n in want) < n_max


class TestHolonomy:
    def test_map_moves_points_to_target_leaf(self, cat, phi0):
        # the leaf point of y at t and that of z at t + offset lie on one
        # centre-stable leaf: their displacement has no unstable part
        sysm = cat.system
        z = eqmeas.mod1(X0 - 0.02 * sysm.frame[0] + 0.04 * sysm.frame[1])
        offset = eqmeas.holonomy_jacobian(sysm, phi0, H, X0, z)["offset"]
        assert offset == pytest.approx(0.02, abs=1e-12)
        params = np.linspace(-0.05, 0.05, 11)
        u, cs = sysm.split(eqmeas.leaf_point(sysm, z, params + offset)
                           - eqmeas.leaf_point(sysm, X0, params))
        assert np.abs(u).max() < 1e-9
        assert cs[:, 0] == pytest.approx(0.04, abs=1e-9)

    def test_map_rejects_distant_leaves(self, cat, phi0):
        far = eqmeas.mod1(X0 + 0.25 * cat.system.frame[1])
        with pytest.raises(ValueError):
            eqmeas.holonomy_jacobian(cat.system, phi0, H, X0, far)

    def test_cat_jacobian_is_flat(self, cat, phi0):
        sysm = cat.system
        z = eqmeas.mod1(X0 + 0.03 * sysm.frame[0] + 0.05 * sysm.frame[1])
        out = eqmeas.holonomy_jacobian(sysm, phi0, H, X0, z)
        assert 0.95 <= out["min"] <= out["max"] <= 1.05

    def test_skew_jacobian_with_base_potential(self, skew):
        sysm = skew.system
        phi = eqmeas.base_cosine_potential(0.05)
        est = eqmeas.estimate_pressure(sysm, phi, np.array([0.2, 0.7, 0.37]))
        y = np.array([0.2, 0.7, 0.37])
        z = sysm.cs_chart(y, np.array([0.05, 0.03]))
        z = sysm.unstable_chart(z, 0.02)
        out = eqmeas.holonomy_jacobian(sysm, phi, est.value, y, z)
        assert 0.8 <= out["min"] <= out["max"] <= 1.25


@pytest.fixture(scope="module")
def default_measures():
    """key -> (system, the CLI's default evolved measure, base_y), built once;
    toral32 takes cat's defaults."""
    from eqmeas.cli import _SYSTEM_DEFAULTS

    @functools.cache
    def build(key):
        sysm = systems_with_oracles()[key][0]
        cfg = _SYSTEM_DEFAULTS["cat" if key == "toral32" else key]
        res = eqmeas.evolve_average(sysm, eqmeas.zero_potential(), math.log(sysm.leaf_rate),
                                    np.array(cfg["base_x"]), steps=40, grid=cfg["grid"],
                                    order=10, leaf_radius=1.0)
        return sysm, res.measure, cfg["base_y"]
    return build


@pytest.fixture(scope="module")
def rect(cat):
    return eqmeas.Rectangle(sys=cat.system, anchor=np.array([0.61, 0.13]),
                            du=0.15, dcs=0.15)


class TestDisintegration:
    def test_joint_is_a_probability_table(self, cat, cat_mu40, rect):
        fam = eqmeas.disintegrate(cat.system, cat_mu40.measure, rect, n_u=8)
        assert fam.joint.shape[0] == 8
        assert fam.joint.sum() == pytest.approx(1.0)
        assert fam.u_marginal().sum() == pytest.approx(1.0)
        assert fam.factor().sum() == pytest.approx(1.0)
        assert 0 < fam.mass_inside < 1

    def test_conditionals_normalized(self, cat, cat_mu40, rect):
        fam = eqmeas.disintegrate(cat.system, cat_mu40.measure, rect, n_u=8)
        k = int(np.argmax(fam.factor()))
        cond = fam.conditional(k)
        assert cond.sum() == pytest.approx(1.0)

    def test_product_structure(self, cat, cat_mu40, rect):
        out = eqmeas.product_structure_check(cat.system, cat_mu40.measure,
                                             rect, n_u=8)
        assert out["tv"] < 0.1

    def test_density_against_reference(self, cat, phi0, cat_mu40, rect):
        fam = eqmeas.disintegrate(cat.system, cat_mu40.measure, rect, n_u=8)
        out = eqmeas.density_vs_reference(cat.system, phi0, H, fam)
        assert out["c0"] < 3.0
        assert all(c >= 1.0 for _, c in out["per_plaque"])

    @pytest.mark.parametrize("bins", [1, 3, 256])
    @pytest.mark.parametrize("key,grid,anchor", [
        ("cat", (32, 32), [0.61, 0.13]),
        ("skew", (16, 16, 8), [0.61, 0.13, 0.37]),
        ("slowprod", (6, 6, 6, 6), [0.61, 0.13, 0.5, 0.5])])
    def test_matches_whole_array_oracle(self, monkeypatch, key, grid, anchor, bins):
        sysm = systems_with_oracles()[key][0]
        rng = np.random.default_rng(len(grid))
        masses = rng.random(grid) * (rng.random(grid) < 0.7)  # some empty bins
        mu = eqmeas.PhaseMeasure(grid, masses / masses.sum())
        rect = eqmeas.Rectangle(sys=sysm, anchor=np.array(anchor), du=0.15, dcs=0.15)
        # a budget of bins subcells and a few more: whole bins, bins at a time
        monkeypatch.setattr(equilibrium, "SUBCELL_POINTS", bins * 4 ** sysm.dim + 5)
        for n_u, n_plaques in ((8, 32), (8, 4 ** (sysm.dim - 1)), (16, 7)):
            got = eqmeas.disintegrate(sysm, mu, rect, n_u=n_u, n_plaques=n_plaques)
            want = disintegrate_oracle(sysm, mu, rect, n_u=n_u, n_plaques=n_plaques)
            assert np.array_equal(got.joint, want.joint)
            assert got.mass_inside == want.mass_inside
            assert got.plaque_shape == want.plaque_shape

    @pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
    def test_matches_full_refinement_on_evolved_measures(self, default_measures, key):
        # the CLI's default evolved measures (toral32: the non-orthonormal
        # [[3, 2], [1, 1]] with cat's), anchors on the seam, and rectangles of
        # half-size 0.5, whose refined bins can sit on the far wrap branch
        sysm, mu, base_y = default_measures(key)
        d = sysm.dim
        mixed = ([0.99, 0.01] * d)[:d]
        cases = [(base_y, 0.15, 32), (base_y, 0.15, 4 ** (d - 1)), ([0.99] * d, 0.15, 32),
                 ([0.01] * d, 0.15, 32), (mixed, 0.15, 32), (base_y, 0.5, 32), (mixed, 0.5, 32)]
        for anchor, half, n_plaques in cases:
            rect = eqmeas.Rectangle(sys=sysm, anchor=np.array(anchor), du=half, dcs=half)
            got = eqmeas.disintegrate(sysm, mu, rect, n_u=8, n_plaques=n_plaques)
            want = disintegrate_oracle(sysm, mu, rect, n_u=8, n_plaques=n_plaques)
            assert np.array_equal(got.joint, want.joint), (anchor, half)
            assert got.mass_inside == want.mass_inside, (anchor, half)
            assert np.array_equal(got.u_edges, want.u_edges)

    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_density_builds_one_reference_for_a_constant_potential(
            self, default_measures, monkeypatch, key):
        sysm, mu, base_y = default_measures(key)
        rect = eqmeas.Rectangle(sys=sysm, anchor=np.array(base_y), du=0.15, dcs=0.15)
        fam = eqmeas.disintegrate(sysm, mu, rect, n_u=8)
        built = []
        ref = caratheodory.reference_measure
        monkeypatch.setattr(equilibrium, "reference_measure",
                            lambda *a, **k: built.append(1) or ref(*a, **k))
        for phi in (eqmeas.zero_potential(), eqmeas.constant_potential(0.3)):
            built.clear()
            got = eqmeas.density_vs_reference(sysm, phi, H, fam)
            assert got == density_vs_reference_oracle(sysm, phi, H, fam)
            assert len(got["per_plaque"]) > 1 and built == [1]
        phi = eqmeas.base_cosine_potential(0.05)  # a reference per plaque
        built.clear()
        got = eqmeas.density_vs_reference(sysm, phi, H, fam)
        assert got == density_vs_reference_oracle(sysm, phi, H, fam)
        assert len(built) == len(got["per_plaque"])

    def test_rejects_rectangle_without_mass(self, cat):
        mu = eqmeas.PhaseMeasure.from_points(np.array([[0.1, 0.1]]), (8, 8))
        rect = eqmeas.Rectangle(sys=cat.system, anchor=np.array([0.6, 0.6]),
                                du=0.05, dcs=0.05)
        with pytest.raises(ValueError, match="carries no mass"):
            eqmeas.disintegrate(cat.system, mu, rect)


B = 256  # steps per probe block in these tests
COS0 = eqmeas.Potential(modes=((1.0, 0, 1),))  # the CLI's probe observable


class Given:
    """A measure whose samples are the given points."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def sample(self, count, rng):
        assert count == len(self.points)
        return self.points


class Unsampled:
    def sample(self, count, rng):
        raise AssertionError("sampled before the arguments were checked")


def table(sysm):
    """Several modes on both base axes (axis 1 - dim reads axis 1), frequencies
    above 1 and below 0, and a nonzero constant."""
    return eqmeas.Potential(0.25, ((1.0, 0, 1), (0.5, 1 - sysm.dim, 3), (-0.7, 0, -2)))


def assert_matches_exact(out, ref, bound=1e-15):
    assert np.abs(out["forward"] - ref["forward"]).max() <= bound
    assert abs(out["mean"] - ref["mean"]) <= bound
    assert abs(out["dispersion"] - ref["dispersion"]) <= bound


class TestBirkhoffProbe:
    """The probe against the exact orbit: the integer phases stepped one step
    at a time in Python integers and the table summed in mpmath."""

    @pytest.mark.parametrize("n_steps,key", [
        *((n, key) for n in (1, B - 1, B, B + 1, 2 * B + 3)
          for key in ("cat", "skew", "toral32")),
        (1, "slowprod"), (B + 1, "slowprod")])
    def test_matches_per_step_oracle(self, monkeypatch, key, n_steps):
        sysm = systems_with_oracles()[key][0]
        n_samples, psi = 3, table(sysm)
        mu = eqmeas.PhaseMeasure.uniform((8,) * sysm.dim)
        ref = birkhoff_probe_oracle(sysm, mu, psi, n_steps=n_steps, n_samples=n_samples, seed=3)
        calls = []
        spied = sysm
        if sysm.fiber is not None:
            spied = dataclasses.replace(sysm, fiber=tuple(
                lambda y, f=f: calls.append(1) or f(y) for f in sysm.fiber))
        # the default block, B steps a block with a ragged point budget, 3 steps
        # a block (ragged last blocks) and one step a block: the same bits
        outs = []
        for points in (core.BLOCK, B * n_samples + 7, 3 * n_samples, 1):
            monkeypatch.setattr(core, "BLOCK", points)
            outs.append(eqmeas.birkhoff_probe(spied, mu, psi, n_steps=n_steps,
                                              n_samples=n_samples, seed=3))
        for out in outs:
            assert_matches_exact(out, ref)
            assert np.array_equal(out["forward"], outs[0]["forward"])
            assert [out[k] for k in ("dispersion", "mean")] == [
                outs[0][k] for k in ("dispersion", "mean")]
        assert not calls  # the table reads the base, so no fiber is stepped

    def test_negative_entries_in_the_power_table(self, monkeypatch):
        # A holds entries that wrap mod 2^64
        sysm = eqmeas.make_toral_automorphism(NEG)
        mu, psi = eqmeas.PhaseMeasure.uniform((8, 8)), table(sysm)
        ref = birkhoff_probe_oracle(sysm, mu, psi, n_steps=300, n_samples=3, seed=5)
        for points in (core.BLOCK, 7 * 3):
            monkeypatch.setattr(core, "BLOCK", points)
            assert_matches_exact(eqmeas.birkhoff_probe(sysm, mu, psi, n_steps=300,
                                                       n_samples=3, seed=5), ref)

    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_start_points_enter_as_64_bit_phases(self, key):
        # a coordinate 1.0 is the point 0; below 2^-11 a float has bits under
        # 2^-64, and the point is the 64-bit phase just below it
        sysm = eqmeas.get_system(key).system
        tiny = 2.0 ** -20 + 2.0 ** -70  # its phase is 2^44
        assert tiny * 2.0 ** 64 != 2.0 ** 44
        pts = np.array([[1.0, 0.3, 0.5], [0.6, 1.0, 0.5], [tiny, 0.7, 0.5],
                        [0.1, 1.75 * 2.0 ** -64, 0.5]])[:, :sysm.dim]
        same = pts.copy()
        same[[0, 1], [0, 1]] = 0.0
        same[2, 0], same[3, 1] = 2.0 ** -20, 2.0 ** -64
        psi = table(sysm)
        got = eqmeas.birkhoff_probe(sysm, Given(pts), psi, n_steps=40, n_samples=4)
        want = eqmeas.birkhoff_probe(sysm, Given(same), psi, n_steps=40, n_samples=4)
        assert np.array_equal(got["forward"], want["forward"])
        assert_matches_exact(got, birkhoff_probe_oracle(sysm, Given(pts), psi, n_steps=40,
                                                        n_samples=4))

    def test_table_cosine(self, cat):
        # n_steps 1 from the phase X = 1 (x = 2^-64): the average is the mode
        # a cos(2 pi kappa / 2^64), for phases kappa at the cells' edges (each
        # side of every 8th edge), at their centres and at 0, 2^63 and 2^64 - 1
        phases = [h * 2 ** 52 + e for h in range(0, 4096, 8) for e in (-1, 0, 1, 2 ** 51)]
        phases += [0, 2 ** 63, 2 ** 64 - 1, 2 ** 64 + 5]  # kappa is read mod 2^64
        one = Given([[2.0 ** -64, 0.0]])
        worst = max(abs(eqmeas.birkhoff_probe(
            cat.system, one, eqmeas.Potential(modes=((1.0, 0, z),)), n_steps=1,
            n_samples=1)["forward"][0] - cos_turns_oracle(z)) for z in phases)
        assert worst <= 2.3e-16  # np.cos(2 pi x) of the float x = kappa / 2^64: 6.1e-16

    def test_steps_no_point(self, cat, skew, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the probe steps no float point")

        for name in ("_step", "step_fwd", "step_back"):
            monkeypatch.setattr(core.SystemSpec, name, refuse)
        for sysm in (cat.system, skew.system):
            mu = eqmeas.PhaseMeasure.uniform((4,) * sysm.dim)
            eqmeas.birkhoff_probe(sysm, mu, table(sysm), n_steps=50, n_samples=5)

    @pytest.mark.parametrize("key", ["skew", "slowprod"])
    def test_fiber_coordinate_is_not_observable(self, key):
        sysm = eqmeas.get_system(key).system
        for axis in (2, -1):
            psi = eqmeas.Potential(modes=((1.0, 0, 1), (1.0, axis, 1)))
            with pytest.raises(IndexError):
                eqmeas.birkhoff_probe(sysm, Unsampled(), psi, n_steps=3, n_samples=5)

    @pytest.mark.parametrize("n_steps,n_samples", [(0, 40), (40, 0)])
    def test_rejects_empty_runs_before_sampling(self, cat, n_steps, n_samples):
        with pytest.raises(ValueError, match="n_steps, n_samples >= 1"):
            eqmeas.birkhoff_probe(cat.system, Unsampled(), COS0,
                                  n_steps=n_steps, n_samples=n_samples)

    def test_work_limit_before_sampling(self, cat, monkeypatch):
        # the schema's largest probe: about 2 minutes, refused at once
        with pytest.raises(ArithmeticError, match=(
                r"probe of birkhoff_steps 1000000 and n_samples 10000 needs "
                r"10000000000 point-steps \(limit 268435456\)")):
            eqmeas.birkhoff_probe(cat.system, Unsampled(), COS0, n_steps=10**6,
                                  n_samples=10**4)
        # the limit itself is allowed, one step more is not
        monkeypatch.setattr(eqmeas.bowen, "MAX_POINT_STEPS", 40 * 5)
        mu = eqmeas.PhaseMeasure.uniform((4, 4))
        eqmeas.birkhoff_probe(cat.system, mu, COS0, n_steps=40, n_samples=5)
        with pytest.raises(ArithmeticError, match=r"birkhoff_steps 41 and n_samples 5 "):
            eqmeas.birkhoff_probe(cat.system, Unsampled(), COS0, n_steps=41, n_samples=5)

    def test_time_averages_agree_with_space_average(self, cat, cat_mu40):
        out = eqmeas.birkhoff_probe(cat.system, cat_mu40.measure, COS0,
                                    n_steps=4000, n_samples=100)
        assert out["dispersion"] < 0.05
        assert abs(out["mean"]) < 0.05   # the observable integrates to zero


class TestTransitivityProbe:
    def test_cat_pair(self, cat):
        hit = eqmeas.transitivity_probe(cat.system, X0,
                                        np.array([0.61, 0.13]))
        assert hit is not None
        assert hit["k"] == 3
        assert abs(hit["param"]) <= 0.1 + 1e-12

    def test_skew_pair(self, skew):
        hit = eqmeas.transitivity_probe(skew.system,
                                        np.array([0.2, 0.7, 0.37]),
                                        np.array([0.61, 0.13, 0.8]))
        assert hit is not None
        assert hit["k"] == 6

    def test_slowprod_pair(self, slowprod):
        hit = eqmeas.transitivity_probe(slowprod.system,
                                        np.array([0.2, 0.7, 0.13, 0.86]),
                                        np.array([0.61, 0.13, 0.95, 0.58]),
                                        delta=0.1, k_max=15)
        assert hit is not None
        assert hit["k"] == 12

    @pytest.mark.parametrize("k", [1, 3])
    def test_negative_eigenvalue_pair(self, cat, k):
        # -cat maps the leaf point at t of x to minus cat's, so its segment at
        # x reaches -y in as many steps, from the same parameter, as cat's reaches y
        sysm = cat.system
        y = (np.array([0.61, 0.13]) if k == 3 else eqmeas.mod1(
            sysm.step_fwd(eqmeas.leaf_point(sysm, X0, 0.06)) + 0.02 * sysm.frame[1]))
        want = eqmeas.transitivity_probe(sysm, X0, y)
        got = eqmeas.transitivity_probe(eqmeas.make_toral_automorphism(NEG), X0,
                                        eqmeas.mod1(-y), k_max=k)
        assert want["k"] == got["k"] == k
        assert got["param"] == pytest.approx(want["param"], abs=1e-12)

    def test_none_when_budget_too_small(self, skew):
        hit = eqmeas.transitivity_probe(skew.system,
                                        np.array([0.2, 0.7, 0.37]),
                                        np.array([0.61, 0.13, 0.8]),
                                        k_max=2)
        assert hit is None

    def test_reads_only_the_spec(self, cat, skew):
        # a field-by-field copy drops any attribute set after construction
        hit = eqmeas.transitivity_probe(dataclasses.replace(cat.system), X0,
                                        np.array([0.61, 0.13]))
        assert hit["k"] == 3
        hit = eqmeas.transitivity_probe(dataclasses.replace(skew.system),
                                        np.array([0.2, 0.7, 0.37]),
                                        np.array([0.61, 0.13, 0.8]))
        assert hit["k"] == 6

    def test_steps_only_between_iterations(self, skew):
        calls = []
        fwd, back = skew.system.fiber

        def step(theta):
            calls.append(1)
            return fwd(theta)

        sysm = dataclasses.replace(skew.system, fiber=(step, back))
        hit = eqmeas.transitivity_probe(sysm, np.array([0.2, 0.7, 0.37]),
                                        np.array([0.61, 0.13, 0.8]), k_max=2)
        assert hit is None
        assert len(calls) == 2

    @pytest.mark.parametrize("matrix", [[[2, 1], [1, 1]], oracles.M32, [[2, 3], [1, 2]]],
                             ids=["cat", "m32", "m23"])
    def test_frames_that_are_not_orthonormal(self, matrix):
        # y = f^k(leaf point at t) + s e_s is reachable at k; frame coordinates come
        # through the coframe, which is not the frame's transpose on m32 and m23
        sysm = eqmeas.make_toral_automorphism(matrix)
        rng = np.random.default_rng(7)
        for _ in range(40):
            x, t, s = rng.random(2), rng.uniform(-0.08, 0.08), rng.uniform(-0.05, 0.05)
            k = int(rng.integers(1, 6))
            y = eqmeas.mod1(eqmeas.iterate(sysm, eqmeas.leaf_point(sysm, x, t), k)
                            + s * sysm.frame[1])
            hit = eqmeas.transitivity_probe(sysm, x, y, k_max=k)
            assert hit is not None
            assert max(map(abs, exact_landing(sysm, x, y, hit["k"], hit["param"]))) <= 0.1

    @pytest.mark.parametrize("k,t,s", [(22, 0.3, 0.4), (25, -0.6, -0.2), (28, 0.8, 0.5)])
    def test_far_hits_land_on_the_exact_orbit(self, cat, k, t, s):
        # at delta 1e-6 the image segment is 10^3-10^6 long at k = 22-28: a float
        # orbit of the launch point drifts past delta, the exact one lands within it.
        # k = 28 is the largest k_max whose window stays under MAX_CENTERS here.
        delta, sysm = 1e-6, cat.system
        image = oracles.exact_leaf_image(sysm, X0, t * delta, k)
        y = np.array([float((image[j] + Fraction(s * delta) * Fraction(sysm.frame[1, j])) % 1)
                      for j in range(2)])
        hit = eqmeas.transitivity_probe(sysm, X0, y, delta=delta, k_max=k)
        assert hit is not None
        assert max(map(abs, exact_landing(sysm, X0, y, hit["k"], hit["param"]))) <= delta

    def test_slowprod_default_pair_at_k_max_64(self, slowprod):
        # the CLI's default slowprod pair: its fiber first comes within delta at k = 40
        x, y = np.array([0.2, 0.7, 0.13, 0.86]), np.array([0.61, 0.13, 0.5, 0.5])
        hit = eqmeas.transitivity_probe(slowprod.system, x, y, k_max=64)
        assert hit["k"] == 40
        assert max(map(abs, exact_landing(slowprod.system, x, y, 40, hit["param"]))) <= 0.1

    def test_steps_no_point(self, cat, skew, slowprod, monkeypatch):
        # the base follows its exact phases and only the fiber is stepped
        def refuse(*args, **kwargs):
            raise AssertionError("transitivity steps or splits no float point")

        for name in ("_step", "step_fwd", "step_back", "split"):
            monkeypatch.setattr(core.SystemSpec, name, refuse)
        pairs = [(cat, X0, [0.61, 0.13], 14, 3), (skew, [0.2, 0.7, 0.37], [0.61, 0.13, 0.8], 14, 6),
                 (slowprod, [0.2, 0.7, 0.13, 0.86], [0.61, 0.13, 0.95, 0.58], 15, 12)]
        for entry, x, y, k_max, k in pairs:
            hit = eqmeas.transitivity_probe(entry.system, np.array(x), np.array(y), k_max=k_max)
            assert hit["k"] == k

    def test_window_limit_before_any_search(self, cat, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("searched over the limit")

        monkeypatch.setattr(equilibrium, "_powers", refuse)
        with pytest.raises(ArithmeticError, match=(
                r"transitivity window of delta 1e-08 and k_max 64 needs 4800000003 deck "
                r"translations \(limit 4194304\)")):
            eqmeas.transitivity_probe(cat.system, X0, np.array([0.61, 0.13]), delta=1e-8,
                                      k_max=64)
        monkeypatch.undo()
        # the default window, 3 (2 * 80 + 1) deck translations, is the limit itself
        monkeypatch.setattr(eqmeas.bowen, "MAX_CENTERS", 483)
        assert eqmeas.transitivity_probe(cat.system, X0, np.array([0.61, 0.13]))["k"] == 3
        monkeypatch.setattr(eqmeas.bowen, "MAX_CENTERS", 482)
        with pytest.raises(ArithmeticError, match="needs 483 deck translations"):
            eqmeas.transitivity_probe(cat.system, X0, np.array([0.61, 0.13]))


def traced_peak_mb(fn):
    """Peak of the memory numpy and Python allocate while fn runs, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestWorkingMemory:
    """Every stage works in blocks: evolve, disintegrate, the Gibbs clouds,
    the Birkhoff probe and the leaf sums peak at no more than the arrays
    the result is built from plus their block sizes, whatever the atoms,
    subcells, centres or samples."""

    @pytest.mark.parametrize("order,grid,steps,marks,limit_mb", [
        (10, (32, 32), 40, (10, 20, 40), 6.0),  # the CLI default (12.3 MB unblocked)
        (6, (256, 256), 200, (), 2.0),          # most base cells, 200 steps
        (10, (256, 256), 200, (), 12.3)])       # and 231,120 atoms
    def test_evolve_peak(self, cat, phi0, order, grid, steps, marks, limit_mb):
        peak = traced_peak_mb(lambda: eqmeas.evolve_average(
            cat.system, phi0, H, X0, steps=steps, grid=grid, order=order,
            leaf_radius=1.0, checkpoints=marks))
        assert peak <= limit_mb

    def test_constant_evolve_peak_without_a_net(self, cat, phi0):
        # the CLI default: 4.6 MB with the net's parameters and weights held
        peak = traced_peak_mb(lambda: eqmeas.evolve_average(
            cat.system, phi0, H, X0, steps=40, grid=(32, 32), order=10,
            leaf_radius=1.0, checkpoints=(10, 20, 40)))
        assert peak <= 2.0

    def test_constant_evolve_of_the_largest_net(self, cat, phi0):
        # the schema's largest evolve net: 148,839,840 atoms, every 149th followed
        res = []
        peak = traced_peak_mb(lambda: res.append(eqmeas.evolve_average(
            cat.system, phi0, H, X0, steps=1, grid=(32, 32), order=16,
            leaf_radius=2.0)))
        assert (res[0].atom_count, res[0].thin) == (998926, 149)
        assert peak <= 2.0

    def test_skew_disintegrate_peak(self, skew, skew_mu40):
        rect = eqmeas.Rectangle(sys=skew.system, anchor=np.array([0.61, 0.13, 0.37]),
                                du=0.15, dcs=0.15)
        peak = traced_peak_mb(lambda: eqmeas.disintegrate(
            skew.system, skew_mu40.measure, rect, n_u=8))
        assert peak <= 3.0  # 13.0 MB with every subcell made at once

    def test_slow_flow_step_peak(self, slowprod):
        # four centres' clouds at the default n_mc (4 x 8,193 points), every
        # fiber point in reach of the slow disk, so every row solves for its arc
        rng = np.random.default_rng(3)
        pts = rng.random((4 * 8193, 4))
        pts[:, 2:] = (eqmeas.SlowFlowProfile().center
                      + (2 * rng.random((len(pts), 2)) - 1) * 0.05)
        peak = traced_peak_mb(lambda: slowprod.system.step_fwd(pts))
        assert peak <= 16.0  # 72 MB with the chord quadrature of every row at once

    @pytest.mark.parametrize("key", ["cat", "skew"])
    def test_gibbs_peak(self, request, phi0, key):
        # the CLI default: 12 centres of 8,192 cloud points (4.3 MB on cat and
        # 5.0 MB on skew with four centres a group)
        entry, mu = request.getfixturevalue(key), request.getfixturevalue(f"{key}_mu40")
        peak = traced_peak_mb(lambda: eqmeas.gibbs_ratio(
            entry.system, phi0, mu.measure, entry.h_top))
        assert peak <= 3.0

    @pytest.mark.parametrize("n_samples,limit_mb", [
        (200, 1.5),      # the CLI default (3.1 MB with 256 steps a block)
        (10 ** 4, 4.0)])  # the schema's most samples (157 MB with 256 steps a block)
    def test_probe_peak(self, cat, cat_mu40, n_samples, limit_mb):
        peak = traced_peak_mb(lambda: eqmeas.birkhoff_probe(
            cat.system, cat_mu40.measure, COS0, n_steps=300, n_samples=n_samples))
        assert peak <= limit_mb

    @pytest.mark.parametrize("key", ["cat", "skew"])
    @pytest.mark.parametrize("stage,limit_mb", [
        ("press", 9.0),   # 24.2 MB on cat, 26.6 MB on skew with every leaf point at once
        ("cdim", 10.0)])  # 41.4 MB on cat, 45.6 MB on skew; covers of up to 542,886 centres
                          # (12.4 MB with the centres and logsumexp through temporaries)
    def test_leaf_sum_peak(self, key, stage, limit_mb):
        # the CLI's default orders, radii and segment, with potential = cos
        sysm = eqmeas.get_system(key).system
        x, cos = eqmeas.mod1(0.2 + 0.31 * np.arange(sysm.dim)), eqmeas.base_cosine_potential()
        run = {"press": lambda: eqmeas.estimate_pressure(sysm, cos, x),
               "cdim": lambda: eqmeas.caratheodory_dim(sysm, cos, x, (-0.1, 0.1),
                                                       r=0.05, tol=0.02)}[stage]
        assert traced_peak_mb(run) <= limit_mb
