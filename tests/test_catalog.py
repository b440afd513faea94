"""System catalog: builders, validation, the slowed fiber flow."""

import dataclasses

import numpy as np
import pytest

import eqmeas
import eqmeas.catalog as catalog
from eqmeas.catalog import CAT_MATRIX, SlowFlowProfile
from oracles import evolve_oracle, slowprod_steps, systems_with_oracles

LAM = (3 + np.sqrt(5.0)) / 2


def rk4_time_one(profile, pts, sign=1.0, step=1e-4, refine_below=0.05):
    """Time-one map oracle: fixed-step RK4 on the field psi * drift.

    Steps whose starting speed is below refine_below are re-done as two
    half steps.  Coordinates stay unwrapped and are reduced mod 1 once at
    the end.  Orbits that pass through the centre, where psi is not
    Lipschitz, are beyond it (errors up to 4e-5 at step 1e-4).
    """
    v = float(sign) * np.asarray(profile.drift, dtype=float)

    def rk4(p, h):
        k1 = profile.psi(p)[..., None] * v
        k2 = profile.psi(p + h / 2 * k1)[..., None] * v
        k3 = profile.psi(p + h / 2 * k2)[..., None] * v
        k4 = profile.psi(p + h * k3)[..., None] * v
        return p + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

    pts = np.array(pts, dtype=float)
    for _ in range(int(round(1.0 / step))):
        lo = profile.psi(pts) < refine_below
        nxt = rk4(pts, step)
        if lo.any():
            nxt = np.where(lo[..., None], rk4(rk4(pts, step / 2), step / 2), nxt)
        pts = nxt
    return eqmeas.mod1(pts)


def line_crossing_oracle(profile, t, step=1e-4):
    """Arc length covered in unit time from cy = t on the chord cx = 0.

    RK4 in w = sign(u)|u|^(1-e), where the field (1-e)|u|^-e kappa(|u|)
    is the constant (1-e)/t0^e on the power-law core, so orbits through
    the centre are resolved.
    """
    e, t0 = profile.exponent, profile.t0

    def field(w):
        u = np.abs(w) ** (1 / (1 - e))
        far = np.maximum(u, 0.9 * t0)
        core = u < 0.9 * t0
        return (1 - e) * np.where(core, t0 ** -e, far ** -e * profile.kappa(far))

    w = np.sign(t) * np.abs(t) ** (1 - e)
    for _ in range(int(round(1.0 / step))):
        k1 = field(w)
        k2 = field(w + step / 2 * k1)
        k3 = field(w + step / 2 * k2)
        k4 = field(w + step * k3)
        w = w + step / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.sign(w) * np.abs(w) ** (1 / (1 - e)) - t


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

    def test_rejects_horizontal_drift(self):
        with pytest.raises(ValueError, match="drift\\[1\\] must be nonzero"):
            SlowFlowProfile(drift=(1.0, 0.0))

    @pytest.mark.parametrize("t0", [5.0, 0.36])
    def test_rejects_disk_crossing_the_wrap_cell(self, t0):
        # the default drift stretches the disk to |d0| < t0*sqrt(2)
        with pytest.raises(ValueError, match="crosses the wrap cell"):
            SlowFlowProfile(t0=t0)

    def test_rejects_arc_meeting_two_copies(self):
        # a vertical drift brings every orbit back to the same disk after
        # one unit of arc
        with pytest.raises(ValueError, match="meets two copies"):
            SlowFlowProfile(drift=(0.0, 1.0))

    def test_default_profile_builds(self):
        prof = SlowFlowProfile()
        assert (prof.t0, prof.exponent, prof.center) == (0.1, 0.5, (0.5, 0.5))
        assert [f.name for f in dataclasses.fields(prof)] == [
            "t0", "exponent", "drift", "center"]

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

    def test_matches_rk4_oracle(self, slowprod):
        prof = slowprod.system.profile
        drift, center = np.array(prof.drift), np.array(prof.center)
        perp = np.array([-drift[1], drift[0]]) / np.linalg.norm(drift)
        rho = np.array([1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        near = center + np.concatenate([rho, -rho])[:, None] * perp
        # on the drift line through the centre, moving away from it
        ahead = center + np.array([1e-6, 1e-3, 0.05, 0.3])[:, None] * drift
        pts = np.random.default_rng(7).random((30, 2))
        for sign in (1.0, -1.0):
            x = np.vstack([pts, near, center + sign * (ahead - center)])
            got = eqmeas.flow_time_one(prof, x, sign=sign)
            want = rk4_time_one(prof, x, sign=sign)
            assert np.abs(eqmeas.wrap(got - want)).max() <= 1e-9
            back = eqmeas.flow_time_one(prof, got, sign=-sign)
            assert np.abs(eqmeas.wrap(back - x)).max() <= 1e-12

    def test_line_through_centre_is_crossed(self):
        # drift (0.5, 1) keeps cx = 0 exact on dyadic points of the line
        prof = SlowFlowProfile(drift=(0.5, 1.0))
        drift, center = np.array(prof.drift), np.array(prof.center)
        t = np.array([-2.0 ** -4, -2.0 ** -10, -2.0 ** -20, 2.0 ** -10])
        end = t + line_crossing_oracle(prof, t)
        assert np.all(end > 0)
        for sign in (1.0, -1.0):
            got = eqmeas.flow_time_one(prof, center + sign * t[:, None] * drift,
                                       sign=sign)
            want = eqmeas.mod1(center + sign * end[:, None] * drift)
            assert np.abs(eqmeas.wrap(got - want)).max() <= 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_image_does_not_depend_on_batch(self, slowprod, sign):
        # under a matrix-vector quadrature these two points moved by 1 ulp
        # with the size of their batch
        recorded = {1.0: ([0.47542495358772874, 0.12987352477313463], 2),
                    -1.0: ([0.6239027819391343, 0.5919027832141105], 4)}
        prof = slowprod.system.profile
        rng = np.random.default_rng(17)
        point, size = recorded[sign]
        cases = [(np.array(point), size, row) for row in range(size)]
        for n in (1, 2, 3, 4, 8, 16, 100):
            cases += [(rng.random(2), n, rng.integers(n)) for _ in range(20)]
        for p, n, row in cases:
            batch = rng.random((n, 2))
            batch[row] = p
            alone = eqmeas.flow_time_one(prof, p, sign=sign)
            got = eqmeas.flow_time_one(prof, batch, sign=sign)[row]
            assert np.array_equal(got, alone), (p.tolist(), n, row)

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

    @pytest.fixture
    def mapped_rows(self, monkeypatch):
        """Row count of each flow_time_one call the slowed product makes."""
        rows = []

        def counting(profile, pts, sign=1.0):
            rows.append(np.size(pts) // 2)
            return eqmeas.flow_time_one(profile, pts, sign=sign)

        monkeypatch.setattr(catalog, "flow_time_one", counting)
        return rows

    def test_evolve_maps_one_fiber_point_per_step(self, slowprod, mapped_rows, phi0):
        # the atoms of a leaf share one fiber point, and no step follows the last bin
        kw = dict(steps=5, grid=(8, 8, 8, 8), order=6, r=0.05, leaf_radius=0.45)
        x = np.array([0.2, 0.7, 0.7916562055903406, 0.6051365892775145])
        res = eqmeas.evolve_average(slowprod.system, phi0, slowprod.h_top, x, **kw)
        assert res.atom_count > 1
        assert mapped_rows == [1] * 4

    def test_gibbs_maps_each_order_once(self, slowprod, mapped_rows, phi0):
        # the 4 centres and their clouds of 256 points take each step together
        mu = eqmeas.PhaseMeasure.uniform((4,) * 4)
        eqmeas.gibbs_ratio(slowprod.system, phi0, mu, slowprod.h_top,
                           orders=range(1, 6), n_centers=4, n_mc=256)
        assert mapped_rows == [4 * 257] * 4

    def test_gibbs_sums_a_nonconstant_potential_along_the_centre_rows(
            self, slowprod, mapped_rows):
        # S_n phi comes from the stepped centre rows; no centre orbit is walked again
        mu = eqmeas.PhaseMeasure.uniform((4,) * 4)
        eqmeas.gibbs_ratio(slowprod.system, eqmeas.base_cosine_potential(0.05), mu,
                           slowprod.h_top, orders=range(1, 6), n_centers=4, n_mc=256)
        assert mapped_rows == [4 * 257] * 4

    def test_evolve_matches_mapping_every_row(self, slowprod, phi0):
        sysm = slowprod.system
        fwd, _ = slowprod_steps(sysm.profile, CAT_MATRIX)
        kw = dict(steps=8, grid=(8, 8, 8, 8), order=6, r=0.05, leaf_radius=0.45)
        x = np.array([0.2, 0.7, 0.7916562055903406, 0.6051365892775145])
        got = eqmeas.evolve_average(sysm, phi0, slowprod.h_top, x, **kw)
        want = evolve_oracle(sysm, fwd, phi0, slowprod.h_top, x, **kw)
        assert got.atom_count == want.atom_count > 1
        assert np.array_equal(got.measure.masses, want.measure.masses)


@pytest.fixture(scope="module")
def oracles():
    return systems_with_oracles()


@pytest.mark.parametrize("key", ["cat", "skew", "slowprod", "toral32"])
class TestStepsMatchClosures:
    """step_fwd/step_back read the base matrix and the fiber map; they give
    the bits of the closures that once were the system."""

    def test_random_points(self, oracles, key):
        sysm, (fwd, back) = oracles[key]
        pts = np.random.default_rng(8).random((10_000, sysm.dim))
        assert np.array_equal(sysm.step_fwd(pts), fwd(pts))
        assert np.array_equal(sysm.step_back(pts), back(pts))

    def test_single_points(self, oracles, key):
        sysm, (fwd, back) = oracles[key]
        for x in np.random.default_rng(9).random((20, sysm.dim)):
            assert np.array_equal(sysm.step_fwd(x), fwd(x))
            assert np.array_equal(sysm.step_back(x), back(x))

    def test_single_point_is_its_row(self, oracles, key):
        # alone or in a batch, a point has one image (by the view matrix.T a
        # lone point of toral32 rounded differently at 245 of 2,000 points)
        sysm = oracles[key][0]
        pts = np.random.default_rng(11).random((2000 if key != "slowprod" else 50,
                                                 sysm.dim))
        for step in (sysm.step_fwd, sysm.step_back):
            batch = step(pts)
            assert all(np.array_equal(step(x), row) for x, row in zip(pts, batch))

    def test_shared_fiber_point(self, oracles, key):
        sysm, (fwd, back) = oracles[key]
        cloud = np.random.default_rng(10).random((1937, sysm.dim))
        cloud[:, 2:] = cloud[0, 2:]
        assert np.array_equal(sysm.step_fwd(cloud), fwd(cloud))
        assert np.array_equal(sysm.step_back(cloud), back(cloud))


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
