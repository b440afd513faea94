"""System catalog: builders, validation, the slowed fiber flow."""

import numpy as np
import pytest

import eqmeas
from eqmeas.catalog import SlowFlowProfile

LAM = (3 + np.sqrt(5.0)) / 2


def test_catalog_keys():
    assert eqmeas.catalog_keys() == ["cat", "skew", "slowprod"]


def test_entries_carry_entropy():
    for key in eqmeas.catalog_keys():
        ent = eqmeas.get_system(key)
        assert ent.h_top == pytest.approx(np.log(LAM), rel=1e-14)
        assert ent.system.leaf_rate == pytest.approx(LAM)


def test_unknown_key():
    with pytest.raises(ValueError):
        eqmeas.get_system("horseshoe")


class TestToralBuilder:
    def test_default_is_cat_matrix(self):
        sysm = eqmeas.make_toral_automorphism()
        assert sysm.step_fwd(np.array([0.1, 0.2])) == pytest.approx([0.4, 0.3])

    def test_custom_hyperbolic_matrix(self):
        sysm = eqmeas.make_toral_automorphism([[1, 1], [1, 2]])
        assert sysm.leaf_rate == pytest.approx(LAM)
        x = np.array([0.3, 0.4])
        back = sysm.step_back(sysm.step_fwd(x))
        assert eqmeas.torus_dist(back, x) < 1e-12

    @pytest.mark.parametrize("matrix", [
        [[1, 1], [0, 1]],      # parabolic, unit eigenvalue
        [[0, -1], [1, 0]],     # rotation, complex spectrum
        [[2, 0], [0, 2]],      # determinant 4, not invertible over Z
    ])
    def test_rejects_non_hyperbolic(self, matrix):
        with pytest.raises(ValueError):
            eqmeas.make_toral_automorphism(matrix)

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            eqmeas.make_toral_automorphism([[2.5, 1], [1, 1]])


class TestRationalGuard:
    def test_as_rational_hits(self):
        assert eqmeas.as_rational(0.5) == (1, 2)
        assert eqmeas.as_rational(2 / 7) == (2, 7)

    def test_as_rational_misses_irrational(self):
        assert eqmeas.as_rational(np.sqrt(2) - 1) is None

    def test_skew_rejects_rational_rotation(self):
        with pytest.raises(ValueError):
            eqmeas.make_skew_product(rotation=0.25)

    def test_resonant_override(self):
        sysm = eqmeas.make_skew_product(rotation=0.25, allow_resonant=True)
        assert sysm.transitive is False

    def test_default_rotation(self):
        sysm = eqmeas.make_skew_product()
        x = np.array([0.1, 0.2, 0.3])
        moved = eqmeas.wrap(sysm.step_fwd(x)[2] - x[2])
        assert moved == pytest.approx(np.sqrt(2) - 1)
        assert sysm.transitive is True


class TestSkewDynamics:
    def test_roundtrip(self, skew):
        pts = np.random.default_rng(3).random((20, 3))
        sysm = skew.system
        back = sysm.step_back(sysm.step_fwd(pts))
        assert np.abs(eqmeas.wrap(back - pts)).max() < 1e-12

    def test_base_is_cat_map(self, skew):
        x = np.array([0.1, 0.2, 0.77])
        out = skew.system.step_fwd(x)
        assert out[:2] == pytest.approx([0.4, 0.3])

    def test_fiber_orbit_equidistribution(self, skew):
        # 40-iterate rotation orbits fill bins to within the exact
        # discrepancy of the golden-like rotation number
        th = np.zeros(40)
        cur = np.array([0.5, 0.5, 0.37])
        for k in range(40):
            th[k] = cur[2]
            cur = skew.system.step_fwd(cur)
        for nb, want in ((16, 0.1), (8, 0.05)):
            cnt = np.bincount(np.minimum((th * nb).astype(int), nb - 1),
                              minlength=nb)
            tv = 0.5 * np.abs(cnt / 40 - 1 / nb).sum()
            assert tv == pytest.approx(want, abs=1e-12)


class TestSlowFlowProfile:
    def test_defaults(self):
        prof = SlowFlowProfile()
        assert prof.t0 == 0.1
        assert prof.exponent == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            SlowFlowProfile(exponent=1.5)
        with pytest.raises(ValueError):
            SlowFlowProfile(exponent=0.0)
        with pytest.raises(ValueError):
            SlowFlowProfile(t0=-0.1)

    def test_kappa_saturates(self):
        prof = SlowFlowProfile()
        assert prof.kappa(np.array([0.1, 0.2, 5.0])) == pytest.approx(1.0)

    def test_kappa_vanishes_at_zero(self):
        prof = SlowFlowProfile()
        assert prof.kappa(np.array([0.0]))[0] == 0.0

    def test_kappa_blend_is_continuous(self):
        prof = SlowFlowProfile()
        t = np.linspace(0.085, 0.105, 2001)
        k = prof.kappa(t)
        assert np.abs(np.diff(k)).max() < 1e-3
        assert np.all(np.diff(k) >= -1e-15)

    def test_psi_vanishes_only_at_center(self):
        prof = SlowFlowProfile()
        assert prof.psi(np.array([0.5, 0.5])) == 0.0
        rng = np.random.default_rng(0)
        pts = rng.random((200, 2))
        far = eqmeas.torus_dist(pts, np.array([0.5, 0.5])) > 1e-3
        assert np.all(prof.psi(pts)[far] > 0)


class TestSlowFlowMap:
    def test_fixed_point_is_exact(self, slowprod):
        prof = slowprod.system.profile
        p = np.array([0.5, 0.5])
        assert np.array_equal(eqmeas.flow_time_one(prof, p), p)

    def test_displacements_shrink_toward_center(self, slowprod):
        prof = slowprod.system.profile
        drift = np.array(prof.drift)
        perp = np.array([-drift[1], drift[0]]) / np.linalg.norm(drift)
        want = [0.34616, 0.30776, 0.29594, 0.29229, 0.29114]
        got = []
        for rho in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
            q0 = np.array(prof.center) + rho * perp
            q1 = eqmeas.flow_time_one(prof, q0)
            got.append(float(np.linalg.norm(eqmeas.wrap(q1 - q0))))
        assert got == pytest.approx(want, abs=5e-5)
        assert all(a > b for a, b in zip(got, got[1:]))

    def test_step_refinement_converged(self, slowprod):
        prof = slowprod.system.profile
        fine = SlowFlowProfile(step=prof.step / 2)
        pts = np.random.default_rng(7).random((30, 2))
        gap = np.abs(eqmeas.wrap(eqmeas.flow_time_one(prof, pts)
                                 - eqmeas.flow_time_one(fine, pts))).max()
        assert gap < 1e-8

    def test_backward_inverts(self, slowprod):
        prof = slowprod.system.profile
        pts = np.random.default_rng(5).random((25, 2))
        fwd = eqmeas.flow_time_one(prof, pts)
        back = eqmeas.flow_time_one(prof, fwd, sign=-1.0)
        assert np.abs(eqmeas.wrap(back - pts)).max() < 1e-9

    def test_single_point_shape(self, slowprod):
        out = eqmeas.flow_time_one(slowprod.system.profile,
                                   np.array([0.2, 0.3]))
        assert out.shape == (2,)


class TestSlowedProduct:
    def test_flags(self, slowprod):
        assert slowprod.system.satisfies_c1 is False
        assert slowprod.system.transitive is True

    def test_roundtrip(self, slowprod):
        pts = np.random.default_rng(5).random((15, 4))
        sysm = slowprod.system
        back = sysm.step_back(sysm.step_fwd(pts))
        assert np.abs(eqmeas.wrap(back - pts)).max() < 1e-9

    def test_base_factor_unchanged(self, slowprod):
        x = np.array([0.1, 0.2, 0.6, 0.7])
        out = slowprod.system.step_fwd(x)
        assert out[:2] == pytest.approx([0.4, 0.3])

    def test_fiber_factor_matches_flow(self, slowprod):
        sysm = slowprod.system
        x = np.array([0.1, 0.2, 0.6, 0.7])
        out = sysm.step_fwd(x)
        want = eqmeas.flow_time_one(sysm.profile, x[2:])
        assert out[2:] == pytest.approx(want, abs=1e-12)


class TestFiberDensities:
    def test_speed_density_normalized(self, slowprod):
        mk = eqmeas.fiber_speed_density(slowprod.system.profile)
        assert mk.shape == (16, 16)
        assert mk.sum() == pytest.approx(1.0)
        assert (mk >= 0).all()

    def test_gap_between_speed_density_and_point_mass(self, slowprod):
        mk = eqmeas.fiber_speed_density(slowprod.system.profile)
        dp = eqmeas.fiber_point_mass((0.5, 0.5))
        tv = 0.5 * np.abs(mk - dp).sum()
        assert tv == pytest.approx(0.9926498720591017, abs=1e-9)

    def test_center_bins_dominate_speed_density(self, slowprod):
        # the slow point sits on the corner shared by bins 7 and 8, so the
        # peak lands somewhere in that 2x2 block
        mk = eqmeas.fiber_speed_density(slowprod.system.profile)
        assert mk.max() == mk[7:9, 7:9].max()
        assert mk[7:9, 7:9].min() > np.median(mk)
        assert mk[8, 8] == pytest.approx(0.007350127940898329, abs=1e-12)

    def test_point_mass(self):
        dp = eqmeas.fiber_point_mass((0.5, 0.5))
        assert dp.sum() == 1.0
        assert dp[8, 8] == 1.0


class TestPotentials:
    def test_geometric_is_constant_on_linear_systems(self, cat, skew):
        for ent in (cat, skew):
            phi = eqmeas.geometric_potential(ent.system)
            assert phi.constant_value == pytest.approx(-np.log(LAM),
                                                       rel=1e-12)

    def test_geometric_scales_with_q(self, cat):
        phi = eqmeas.geometric_potential(cat.system, q=0.5)
        assert phi.constant_value == pytest.approx(-0.5 * np.log(LAM))

    def test_cosine_depends_on_first_coordinate_only(self):
        phi = eqmeas.base_cosine_potential(0.05)
        assert phi.constant_value is None
        a = phi.fn(np.array([0.3, 0.1]))
        b = phi.fn(np.array([0.3, 0.9]))
        assert a == pytest.approx(b)
        assert phi.fn(np.zeros(2)) == pytest.approx(0.05)
