"""Evolved measures, Gibbs ratios, holonomy, disintegration, probes."""

import dataclasses

import numpy as np
import pytest

import eqmeas

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
        m0 = pm.marginal(0)
        assert m0 == pytest.approx([2 / 3, 1 / 3])

    def test_marginal_multi_axis(self):
        pm = eqmeas.PhaseMeasure.uniform((2, 3, 4))
        joint = pm.marginal((0, 2))
        assert joint.shape == (2, 4)
        assert joint.sum() == pytest.approx(1.0)

    def test_coarsen(self):
        pm = eqmeas.PhaseMeasure.uniform((8, 8))
        c = pm.coarsen((2, 2))
        assert c.grid == (4, 4)
        assert c.total() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            pm.coarsen((3, 2))

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

    def test_partition_assigns_every_point_once(self, cat):
        cells, assign = eqmeas.rectangle_partition(cat.system, 0.3)
        pts = np.random.default_rng(2).random((400, 2))
        idx = assign(pts)
        assert idx.shape == (400,)
        assert (idx >= 0).all()


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
        prof = eqmeas.convergence_profile(res)
        tvs = [tv for _, tv in prof["rows"]]
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


class TestHolonomy:
    def test_map_moves_points_to_target_leaf(self, cat):
        sysm = cat.system
        z = eqmeas.mod1(X0 + 0.04 * sysm.frame[1])
        params = np.linspace(-0.05, 0.05, 11)
        p2, pts = eqmeas.holonomy_map(sysm, X0, z, params)
        on_leaf = eqmeas.mod1(z + p2[:, None] * sysm.frame[0])
        assert np.abs(eqmeas.wrap(pts - on_leaf)).max() < 1e-9

    def test_map_rejects_distant_leaves(self, cat):
        far = eqmeas.mod1(X0 + 0.25 * cat.system.frame[1])
        with pytest.raises(ValueError):
            eqmeas.holonomy_map(cat.system, X0, far, np.zeros(3))

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


class TestBirkhoffProbe:
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

        def step(pts):
            calls.append(1)
            return skew.system.step_fwd(pts)

        sysm = dataclasses.replace(skew.system, step_fwd=step)
        hit = eqmeas.transitivity_probe(sysm, np.array([0.2, 0.7, 0.37]),
                                        np.array([0.61, 0.13, 0.8]),
                                        k_max=2, verify=False)
        assert hit is None
        assert len(calls) == 2
