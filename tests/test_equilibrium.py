"""Evolved measures, Gibbs ratios, holonomy, disintegration, probes."""

import dataclasses

import numpy as np
import pytest

import eqmeas
from eqmeas import equilibrium
from eqmeas.equilibrium import _bin_index
from oracles import (bin_index_oracle, evolve_oracle, gibbs_ratio_oracle,
                     systems_with_oracles)

LAM = (3 + np.sqrt(5.0)) / 2
H = np.log(LAM)
X0 = np.array([0.2, 0.7])


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

    def test_edge_points_clamp_to_last_bin(self):
        pm = eqmeas.PhaseMeasure.from_points(np.array([[1.0 - 1e-16, 0.5]]),
                                             (4, 4))
        assert pm.reshaped()[3, 2] == pytest.approx(1.0)

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


class TestScaling:
    def test_maximal_entropy_potential(self, cat, phi0):
        out = eqmeas.scaling_check(cat.system, phi0, H, X0)
        assert out["deviation"] < 1e-6

    def test_geometric_potential(self, cat):
        phi = eqmeas.geometric_potential(cat.system)
        out = eqmeas.scaling_check(cat.system, phi, 0.0, X0)
        assert out["deviation"] < 1e-6


class TestEvolveAverage:
    def test_cat_limit_is_near_lebesgue(self, cat_mu40):
        unif = eqmeas.PhaseMeasure.uniform((32, 32))
        assert cat_mu40.measure.tv(unif) < 0.05

    def test_reports_atom_count_and_steps(self, cat_mu40):
        assert cat_mu40.steps == 40
        assert cat_mu40.atom_count == 231120
        assert cat_mu40.initial_mass == pytest.approx(15.279, abs=1e-2)

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

    @pytest.mark.parametrize("key,x,grid", [
        ("cat", [0.2, 0.7], (8, 8)),
        ("skew", [0.2, 0.7, 0.37], (8, 8, 4)),
        ("slowprod", [0.2, 0.7, 0.13, 0.86], (4, 4, 4, 4)),
        ("toral32", [0.2, 0.7], (8, 8))])
    def test_matches_full_atom_oracle(self, phi0, monkeypatch, key, x, grid):
        sysm, (fwd, _) = systems_with_oracles()[key]
        h = float(np.log(sysm.leaf_rate))
        # every 6th of 359 atoms (every 17th of 1,040 on toral32)
        monkeypatch.setattr(equilibrium, "ATOM_BUDGET", 64)
        kw = dict(steps=6, grid=grid, order=4, r=0.05, leaf_radius=0.5,
                  checkpoints=(1, 2, 5, 6))
        got = eqmeas.evolve_average(sysm, phi0, h, np.array(x), **kw)
        want = evolve_oracle(sysm, fwd, phi0, h, np.array(x), atom_budget=64, **kw)
        assert got.thin == want.thin > 1
        assert got.atom_count == want.atom_count
        assert got.measure.grid == want.measure.grid == grid
        assert np.array_equal(got.measure.masses, want.measure.masses)
        assert sorted(got.snapshots) == sorted(want.snapshots) == [1, 2, 5, 6]
        for n, snap in want.snapshots.items():
            assert np.array_equal(got.snapshots[n].masses, snap.masses)

    @pytest.mark.parametrize("leaf", ["generic", "edge"])
    @pytest.mark.parametrize("block", [7, 64])
    @pytest.mark.parametrize("key,x,grid", [
        ("cat", [0.2, 0.7], (8, 8)),
        ("skew", [0.2, 0.7, 0.37], (8, 8, 4)),
        ("slowprod", [0.2, 0.7, 0.13, 0.86], (4, 4, 4, 4)),
        ("toral32", [0.2, 0.7], (8, 8))])
    def test_matches_oracle_across_blocks(self, phi0, monkeypatch, key, x, grid,
                                          block, leaf):
        sysm, (fwd, _) = systems_with_oracles()[key]
        h = float(np.log(sysm.leaf_rate))
        monkeypatch.setattr(equilibrium, "EVOLVE_BLOCK", block)
        kw = dict(steps=6, grid=grid, r=0.05, leaf_radius=0.5, checkpoints=(1, 2, 5, 6))
        if leaf == "generic":  # 359 atoms (1,040 on toral32): a ragged last block
            x, kw["order"] = np.array(x), 4
        else:
            # order 1 puts an atom at t = 0, whose coordinates all reduce to
            # 1.0 and take the clamp of _bin_index
            x, kw["order"] = np.full(sysm.dim, -1e-20), 1
            assert (eqmeas.mod1(x) == 1.0).all()
            assert 0.0 in eqmeas.reference_measure(sysm, phi0, h, x, 1, r=0.05,
                                                   leaf_radius=0.5).params
        got = eqmeas.evolve_average(sysm, phi0, h, x, **kw)
        want = evolve_oracle(sysm, fwd, phi0, h, x, **kw)
        assert got.atom_count == want.atom_count
        if leaf == "generic":
            assert got.atom_count > block and got.atom_count % block
        assert np.array_equal(got.measure.masses, want.measure.masses)
        assert sorted(got.snapshots) == sorted(want.snapshots) == [1, 2, 5, 6]
        for n, snap in want.snapshots.items():
            assert np.array_equal(got.snapshots[n].masses, snap.masses)

    @pytest.mark.parametrize("grid", [(8, 8), (8, 8, 8, 8)])
    def test_rejects_grid_of_wrong_length(self, skew, phi0, grid):
        with pytest.raises(ValueError, match=f"grid has {len(grid)} axes.*dim 3"):
            eqmeas.evolve_average(skew.system, phi0, skew.h_top,
                                  np.array([0.2, 0.7, 0.37]), steps=2, grid=grid,
                                  order=4, leaf_radius=0.5)


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


def birkhoff_probe_oracle(sysm, mu, observable, *, n_steps=10_000, n_samples=200,
                          seed=0, tol=0.05):
    """Per-step Birkhoff probe: one observable call per orbit point."""
    rng = np.random.default_rng(seed)
    pts = mu.sample(n_samples, rng)
    fwd = np.zeros(n_samples)
    bwd = np.zeros(n_samples)
    pf, pb = pts.copy(), pts.copy()
    for _ in range(n_steps):
        fwd += observable(pf)
        bwd += observable(pb)
        pf = sysm.step_fwd(pf)
        pb = sysm.step_back(pb)
    fwd /= n_steps
    bwd /= n_steps
    return {
        "forward": fwd,
        "backward": bwd,
        "dispersion": float(np.std(fwd)),
        "mean": float(np.mean(fwd)),
        "agree_fraction": float(np.mean(np.abs(fwd - bwd) <= tol)),
    }


B = eqmeas.equilibrium.PROBE_BLOCK


class TestBirkhoffProbe:
    @pytest.mark.parametrize("n_steps,key", [
        *((n, key) for n in (1, B - 1, B, B + 1, 2 * B + 3)
          for key in ("cat", "skew", "toral32")),
        (1, "slowprod"), (B + 1, "slowprod")])
    def test_matches_per_step_oracle(self, key, n_steps):
        sysm = systems_with_oracles()[key][0]
        n_samples = 8 if key == "slowprod" else 40
        mu = eqmeas.PhaseMeasure.uniform((8,) * sysm.dim)
        calls = {"fwd": 0, "back": 0, "obs": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        obs = lambda pts: np.cos(2 * np.pi * pts[..., 0]) + 0.3 * pts[..., 1]
        spied = sysm
        if sysm.fiber is not None:
            spied = dataclasses.replace(sysm, fiber=(counted("fwd", sysm.fiber[0]),
                                                     counted("back", sysm.fiber[1])))
        out = eqmeas.birkhoff_probe(spied, mu, counted("obs", obs),
                                    n_steps=n_steps, n_samples=n_samples, seed=3)
        ref = birkhoff_probe_oracle(sysm, mu, obs, n_steps=n_steps,
                                    n_samples=n_samples, seed=3)
        assert np.array_equal(out["forward"], ref["forward"])
        assert np.array_equal(out["backward"], ref["backward"])
        for k in ("dispersion", "mean", "agree_fraction"):
            assert out[k] == ref[k]
        # the observable reads the base, so no fiber is stepped; one observable
        # call per block of both directions
        if sysm.fiber is not None:
            assert calls["fwd"] == calls["back"] == 0
        assert calls["obs"] == -(-n_steps // B)

    @pytest.mark.parametrize("key", ["skew", "slowprod"])
    def test_fiber_coordinate_is_not_observable(self, key):
        sysm = eqmeas.get_system(key).system
        mu = eqmeas.PhaseMeasure.uniform((4,) * sysm.dim)
        with pytest.raises(IndexError):
            eqmeas.birkhoff_probe(sysm, mu, lambda pts: pts[..., 2],
                                  n_steps=3, n_samples=5)

    def test_time_averages_agree_with_space_average(self, cat, cat_mu40):
        obs = lambda pts: np.cos(2 * np.pi * pts[..., 0])
        out = eqmeas.birkhoff_probe(cat.system, cat_mu40.measure, obs,
                                    n_steps=4000, n_samples=100)
        assert out["dispersion"] < 0.05
        assert out["agree_fraction"] >= 0.9
        assert abs(out["mean"]) < 0.05   # the observable integrates to zero

    def test_forward_backward_symmetry(self, cat, cat_mu40):
        obs = lambda pts: np.sin(2 * np.pi * pts[..., 1])
        out = eqmeas.birkhoff_probe(cat.system, cat_mu40.measure, obs,
                                    n_steps=4000, n_samples=100)
        gap = np.abs(out["forward"] - out["backward"]).max()
        assert gap < 0.1


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
