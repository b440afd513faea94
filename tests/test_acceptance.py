"""End-to-end acceptance checks, one per advertised guarantee.

Each test prints a single PASS/FAIL line (run with -s to see them all)
and asserts the same condition, so the suite doubles as a report.
"""

import numpy as np
import pytest

import eqmeas

LAM = (3 + np.sqrt(5.0)) / 2
H = np.log(LAM)
X0 = np.array([0.2, 0.7])
SEG = (-0.1, 0.1)


def _line(num, name, ok, detail):
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_pressure_oracle(cat, phi0):
    est = eqmeas.estimate_pressure(cat.system, phi0, X0, radii=(0.05,))
    gap = abs(est.value - 0.9624)
    _line(1, "pressure oracle", gap < 0.05,
          f"P={est.value:.6f} target=0.9624 gap={gap:.2e}")


def test_criterion_02_affine_in_q(cat):
    resids = []
    for q in (0.0, 0.5, 1.0, 2.0):
        phi = eqmeas.geometric_potential(cat.system, q)
        est = eqmeas.estimate_pressure(cat.system, phi, X0, radii=(0.05,))
        resids.append(abs(est.value - (1 - q) * 0.9624))
    worst = max(resids)
    _line(2, "affine law in q", worst < 0.05, f"max residual={worst:.2e}")


def test_criterion_03_dimension_identity(cat, skew, phi0):
    runs = [
        ("cat/zero", cat.system, phi0, X0),
        ("cat/geom", cat.system, eqmeas.geometric_potential(cat.system, 1.0),
         X0),
        ("skew/zero", skew.system, phi0, np.array([0.2, 0.7, 0.37])),
    ]
    gaps = []
    for name, sysm, phi, x in runs:
        est = eqmeas.estimate_pressure(sysm, phi, x, radii=(0.05,))
        out = eqmeas.caratheodory_dim(sysm, phi, x, SEG)
        gaps.append((name, abs(out["dim"] - est.value)))
    worst = max(g for _, g in gaps)
    _line(3, "dimension equals pressure", worst < 0.07,
          "; ".join(f"{n} gap={g:.4f}" for n, g in gaps))


def test_criterion_04_mass_bounds(cat, skew, phi0):
    rng = np.random.default_rng(5)
    parts = []
    for ent in (cat, skew):
        pts = rng.random((20, ent.system.dim))
        out = eqmeas.mass_diagnostics(ent.system, phi0, H, pts)
        parts.append((ent.key, out["ratio"], out["worst_slope"]))
    ok = all(r < 10 and abs(s) < 0.05 for _, r, s in parts)
    _line(4, "reference-mass bounds", ok,
          "; ".join(f"{k} ratio={r:.5f} slope={s:.1e}" for k, r, s in parts))


def test_criterion_05_scaling_identity(cat, phi0):
    devs = []
    for name, phi, p in (
            ("zero", phi0, H),
            ("geom", eqmeas.geometric_potential(cat.system, 1.0), 0.0)):
        out = eqmeas.scaling_check(cat.system, phi, p, X0, order=10)
        devs.append((name, out["deviation"]))
    worst = max(d for _, d in devs)
    _line(5, "pushforward scaling", worst < 0.05,
          "; ".join(f"{n} dev={d:.2e}" for n, d in devs))


def test_criterion_06_gibbs_bounds(cat, phi0, cat_mu40):
    rep = eqmeas.gibbs_ratio(cat.system, phi0, cat_mu40.measure, H, seed=0)
    spread = rep.qhat.max() / rep.qhat.min()
    ok = spread < 10 and abs(rep.trend) < 0.05
    _line(6, "gibbs ratio bounds", ok,
          f"qhat spread={spread:.3f} trend={rep.trend:.2e}")


def test_criterion_07_holonomy(cat, skew, phi0):
    sysm = cat.system
    z = eqmeas.mod1(X0 + 0.03 * sysm.frame[0] + 0.05 * sysm.frame[1])
    flat = eqmeas.holonomy_jacobian(sysm, phi0, H, X0, z)
    ok_cat = 0.95 <= flat["min"] <= flat["max"] <= 1.05

    sk = skew.system
    phi = eqmeas.base_cosine_potential(0.05)
    est = eqmeas.estimate_pressure(sk, phi, np.array([0.2, 0.7, 0.37]))
    y = np.array([0.2, 0.7, 0.37])
    zc = sk.unstable_chart(sk.cs_chart(y, np.array([0.05, 0.03])), 0.02)
    hol = eqmeas.holonomy_jacobian(sk, phi, est.value, y, zc)
    ok_skew = 0.8 <= hol["min"] <= hol["max"] <= 1.25
    _line(7, "holonomy jacobian", ok_cat and ok_skew,
          f"cat=[{flat['min']:.4f},{flat['max']:.4f}] "
          f"skew=[{hol['min']:.4f},{hol['max']:.4f}]")


def test_criterion_08_convergence_and_x_independence(cat, skew, phi0,
                                                     cat_mu40, skew_mu40):
    out_c = eqmeas.pairwise_evolve_tv(
        cat.system, phi0, H,
        [X0, np.array([0.61, 0.13]), np.array([0.3, 0.8])],
        steps=40, grid=(32, 32), order=10, leaf_radius=1.0)
    out_s = eqmeas.pairwise_evolve_tv(
        skew.system, phi0, H,
        [np.array([0.2, 0.7, 0.37]), np.array([0.61, 0.13, 0.37]),
         np.array([0.3, 0.8, 0.37])],
        steps=40, grid=(16, 16, 8), order=10, leaf_radius=1.0)
    tv_cat = cat_mu40.measure.tv(eqmeas.PhaseMeasure.uniform((32, 32)))
    tv_skew = skew_mu40.measure.tv(eqmeas.PhaseMeasure.uniform((16, 16, 8)))
    ok = (len(out_c["tvs"]) >= 3 and out_c["max_tv"] < 0.1
          and len(out_s["tvs"]) >= 3 and out_s["max_tv"] < 0.1
          and tv_cat < 0.1 and tv_skew < 0.1)
    _line(8, "limit independence", ok,
          f"pair tv cat={out_c['max_tv']:.4f} skew={out_s['max_tv']:.4f}; "
          f"tv to lebesgue cat={tv_cat:.4f} skew={tv_skew:.4f}")


def test_criterion_09_conditional_equivalence(cat, phi0, cat_mu40):
    anchors = (np.array([0.61, 0.13]), np.array([0.3, 0.8]),
               np.array([0.45, 0.52]))
    phi1 = eqmeas.geometric_potential(cat.system, 1.0)
    p1 = eqmeas.estimate_pressure(cat.system, phi1, X0, radii=(0.05,)).value
    res1 = eqmeas.evolve_average(cat.system, phi1, p1, X0, steps=40,
                                 grid=(32, 32), order=10, leaf_radius=1.0)
    worst = 0.0
    for phi, p, mu in ((phi0, H, cat_mu40.measure), (phi1, p1, res1.measure)):
        for a in anchors:
            rect = eqmeas.Rectangle(sys=cat.system, anchor=a, du=0.15,
                                    dcs=0.15)
            fam = eqmeas.disintegrate(cat.system, mu, rect, n_u=8)
            out = eqmeas.density_vs_reference(cat.system, phi, p, fam)
            worst = max(worst, out["c0"])
    _line(9, "conditional equivalence", worst < 3.0,
          f"worst C0={worst:.3f} over {2 * len(anchors)} rectangles")


def test_criterion_10_product_structure(cat, skew, cat_mu40, skew_mu40):
    rc = eqmeas.Rectangle(sys=cat.system, anchor=np.array([0.61, 0.13]),
                          du=0.15, dcs=0.15)
    rs = eqmeas.Rectangle(sys=skew.system, anchor=np.array([0.61, 0.13, 0.37]),
                          du=0.15, dcs=0.15)
    tv_c = eqmeas.product_structure_check(cat.system, cat_mu40.measure, rc,
                                          n_u=8)["tv"]
    tv_s = eqmeas.product_structure_check(skew.system, skew_mu40.measure, rs,
                                          n_u=8)["tv"]
    _line(10, "local product structure", tv_c < 0.1 and tv_s < 0.1,
          f"tv cat={tv_c:.4f} skew={tv_s:.4f}")


def test_criterion_11_negative_control(slowprod, phi0, slow_pair):
    gen, slow = slow_pair
    prof = eqmeas.SlowFlowProfile()

    # oracle gap between the two candidate limits, built directly on the grid
    mk = eqmeas.fiber_speed_density(prof, bins=16)
    dp = eqmeas.fiber_point_mass(prof.center, bins=16)
    base = np.full((16, 16), 1.0 / 256)
    lhs = eqmeas.PhaseMeasure((16,) * 4,
                              np.multiply.outer(base, mk).ravel())
    rhs = eqmeas.PhaseMeasure((16,) * 4,
                              np.multiply.outer(base, dp).ravel())
    gap = lhs.tv(rhs)
    threshold = gap / 3
    tv = gen.measure.tv(slow.measure)

    est = eqmeas.estimate_pressure(slowprod.system, phi0,
                                   np.array([0.2, 0.7, 0.13, 0.86]))
    rep = eqmeas.gibbs_ratio(slowprod.system, phi0, gen.measure, est.value,
                             orders=range(1, 6), n_centers=6, n_mc=2048,
                             seed=0)
    ok = tv > threshold and rep.trend > 0.05
    _line(11, "negative control", ok,
          f"tv={tv:.4f} > threshold={threshold:.4f} (oracle gap={gap:.4f}); "
          f"gibbs trend={rep.trend:.4f} flagged={rep.flagged()}")


def test_criterion_12_invariant_suite(cat, skew, phi0, cat_mu40, skew_mu40):
    rng = np.random.default_rng(12)
    failures = []
    for ent, mu in ((cat, cat_mu40.measure), (skew, skew_mu40.measure)):
        sysm = ent.system
        assert sysm.satisfies_c1
        x = rng.random(sysm.dim)
        phi = eqmeas.base_cosine_potential(0.3)

        s_total = eqmeas.birkhoff_sum(sysm, phi, x, 7)
        s_split = (eqmeas.birkhoff_sum(sysm, phi, x, 4)
                   + eqmeas.birkhoff_sum(sysm, phi, eqmeas.iterate(sysm, x, 4), 3))
        if abs(s_total - s_split) > 1e-9:
            failures.append(f"{ent.key}:cocycle")

        a, b = rng.random((2, sysm.dim))
        dists = [eqmeas.dyn_metric(sysm, a, b, n) for n in range(1, 7)]
        if np.any(np.diff(dists) < -1e-12):
            failures.append(f"{ent.key}:dn_monotone")

        lzs = [eqmeas.log_partition_sum(sysm, phi0, x, 6, r)[0]
               for r in (0.1, 0.05, 0.025)]
        if not lzs[0] <= lzs[1] <= lzs[2]:
            failures.append(f"{ent.key}:sandwich")

        if not eqmeas.check_submultiplicativity(sysm, phi0)["ok"]:
            failures.append(f"{ent.key}:submult")

        c_lo = eqmeas.cover_cost(sysm, phi0, x, (-0.2, 0.2), 0.7, 4)
        c_hi = eqmeas.cover_cost(sysm, phi0, x, (-0.2, 0.2), 1.2, 4)
        if not c_lo.cost > c_hi.cost:
            failures.append(f"{ent.key}:cover_monotone")

        y = sysm.unstable_chart(x, 0.03)
        m1 = eqmeas.reference_measure(sysm, phi0, H, x, 6)
        m2 = eqmeas.reference_measure(sysm, phi0, H, y, 6)
        w1 = m1.segment_mass(-0.05, 0.05)
        w2 = m2.segment_mass(-0.08, 0.02)
        if abs(w1 - w2) > 1e-9 * w1:
            failures.append(f"{ent.key}:overlap")

        anchor = np.array([0.61, 0.13, 0.37][:sysm.dim])
        npl = 4 ** (sysm.dim - 1)
        big = eqmeas.Rectangle(sys=sysm, anchor=anchor, du=0.15, dcs=0.15)
        small = eqmeas.Rectangle(sys=sysm, anchor=anchor, du=0.075, dcs=0.15)
        fb = eqmeas.disintegrate(sysm, mu, big, n_u=8, n_plaques=npl)
        fs = eqmeas.disintegrate(sysm, mu, small, n_u=4, n_plaques=npl)
        k = int(np.argmax(fb.factor()))
        pa, pb = fb.joint[2:6, k], fs.joint[:, k]
        if np.abs(pa / pa.sum() - pb / pb.sum()).max() > 1e-12:
            failures.append(f"{ent.key}:scalar_consistency")

        lm = eqmeas.reference_measure(sysm, phi0, H, x, 6)
        if abs(eqmeas.pushforward(sysm, lm).mass() - lm.mass()) > 1e-12 * lm.mass():
            failures.append(f"{ent.key}:mass_conserved")

    _line(12, "invariant suite", not failures,
          "all 8 properties on cat+skew" if not failures
          else "failed: " + ", ".join(failures))
