"""Reference implementations the tests hold the package against.

The step maps here are opaque closures over full (..., dim) points, the
slowed product mapping the fiber of every row; evolve_oracle pushes the
full (N, dim) atom array through a step map and bins every axis.  The
package computes the same numbers from a system's base matrix and fiber
map, and the tests compare the two bit for bit.  The closures multiply by
contiguous transposes, as the package does: by the view m.T numpy maps a
single point with another kernel, which rounds 3x + 2y (M32) unlike the
same point in a batch.

gibbs_ratio_oracle estimates the Bowen-ball masses one centre at a time.
pressure_oracle builds one separated net and one partition sum per
(order, radius), as the package did before reading coarser radii by
stride; mass_diagnostics_masses_oracle builds one reference measure per
(base point, order), as mass_diagnostics still does for a non-constant
potential; check_separation and is_spanning certify separated nets in the
d_n metric, and bowen_constants measures the distortion constants the
closed forms rest on.
"""

import numpy as np

import eqmeas
from eqmeas.catalog import CAT_MATRIX, GOLDEN_ROTATION
from eqmeas.core import leaf_birkhoff_sum
from eqmeas.equilibrium import EvolveResult, GibbsReport, PhaseMeasure

# a hyperbolic matrix with an entry (3) whose products are not all exact
M32 = [[3, 2], [1, 1]]


def _inverse(m):
    return np.rint(np.linalg.inv(m))


def _transposes(matrix):
    """Contiguous transposes of matrix and of its integer inverse."""
    m = np.asarray(matrix, dtype=float)
    return m.T.copy(), _inverse(m).T.copy()


def toral_steps(matrix):
    mt, minvt = _transposes(matrix)

    def fwd(pts):
        return eqmeas.mod1(np.asarray(pts, dtype=float) @ mt)

    def back(pts):
        return eqmeas.mod1(np.asarray(pts, dtype=float) @ minvt)

    return fwd, back


def skew_steps(matrix, rot):
    mt, minvt = _transposes(matrix)

    def fwd(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ mt
        out[..., 2] = pts[..., 2] + rot
        return eqmeas.mod1(out)

    def back(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ minvt
        out[..., 2] = pts[..., 2] - rot
        return eqmeas.mod1(out)

    return fwd, back


def slowprod_steps(profile, matrix):
    mt, minvt = _transposes(matrix)

    def every_row(matt, sign):
        def step(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.empty_like(pts)
            out[..., :2] = eqmeas.mod1(pts[..., :2] @ matt)
            out[..., 2:] = eqmeas.flow_time_one(profile, pts[..., 2:], sign=sign)
            return out
        return step

    return every_row(mt, 1.0), every_row(minvt, -1.0)


def systems_with_oracles():
    """{name: (system, (forward oracle, backward oracle))}."""
    slow = eqmeas.get_system("slowprod").system
    return {
        "cat": (eqmeas.get_system("cat").system, toral_steps(CAT_MATRIX)),
        "skew": (eqmeas.get_system("skew").system, skew_steps(CAT_MATRIX, GOLDEN_ROTATION)),
        "slowprod": (slow, slowprod_steps(slow.profile, CAT_MATRIX)),
        "toral32": (eqmeas.make_toral_automorphism(M32), toral_steps(M32)),
    }


def evolve_oracle(sysm, step, phi, pressure, x, *, steps=40, grid=None, order=10,
                  r=0.05, leaf_radius=1.0, checkpoints=(), atom_budget=10**6):
    """evolve_average with the full (N, dim) atoms mapped by `step` and binned
    on every axis by bin_index_oracle."""
    if grid is None:
        grid = (32,) * sysm.dim
    lm = eqmeas.reference_measure(sysm, phi, pressure, x, order, r=r,
                                  leaf_radius=leaf_radius)
    pts = lm.points()
    w = lm.weights
    thin = 1
    if len(pts) > atom_budget:
        thin = int(np.ceil(len(pts) / atom_budget))
        pts, w = pts[::thin], w[::thin]
    w = w / w.sum()
    acc = np.zeros(int(np.prod(grid)))
    snaps = {}
    marks = set(int(c) for c in checkpoints)
    for k in range(steps):
        if k:
            pts = step(pts)
        acc += np.bincount(bin_index_oracle(pts, grid), weights=w,
                           minlength=int(np.prod(grid)))
        if (k + 1) in marks:
            snaps[k + 1] = PhaseMeasure(tuple(grid), acc / (k + 1))
    return EvolveResult(measure=PhaseMeasure(tuple(grid), acc / steps), snapshots=snaps,
                        steps=steps, atom_count=len(pts), initial_mass=lm.mass(),
                        thin=thin)


def gibbs_ratio_oracle(sysm, phi, mu, pressure, *, orders=range(3, 9), r=0.2,
                       n_centers=12, n_mc=8192, pad=1.05, seed=0):
    """gibbs_ratio one centre at a time: one rng call per cloud, the centre
    stepped as one point and its cloud as an (n_mc, dim) array, and S_n phi
    from birkhoff_sum at each order."""
    orders = list(orders)
    n_min, n_max = min(orders), max(orders)
    rng = np.random.default_rng(seed)
    centers = mu.sample(n_centers, rng)
    exts = np.full(sysm.dim, r * pad)
    exts[0] = eqmeas.ball_width(sysm, n_min, r) * pad
    volume = float(np.prod(2 * exts)) * abs(float(np.linalg.det(sysm.frame)))
    ratios = np.full((n_centers, len(orders)), np.nan)
    floored = np.zeros((n_centers, len(orders)), dtype=bool)
    pos = {n: j for j, n in enumerate(orders)}
    for i, x in enumerate(centers):
        coeff = (2 * rng.random((n_mc, sysm.dim)) - 1) * exts
        cloud = eqmeas.mod1(x + coeff @ sysm.frame)
        dens = mu.density(cloud)
        dmax = eqmeas.torus_dist(x, cloud)
        zx, zc = x.copy(), cloud
        for n in range(1, n_max + 1):
            if n > 1:
                zx, zc = sysm.step_fwd(zx), sysm.step_fwd(zc)
                dmax = np.maximum(dmax, eqmeas.torus_dist(zx, zc))
            if n in pos:
                j = pos[n]
                hits = dmax < r
                est = volume * float(np.mean(dens * hits))
                if not hits.any() or est <= 0:
                    est = volume * max(float(np.mean(dens)), 1e-300) / n_mc
                    floored[i, j] = True
                sn = float(eqmeas.birkhoff_sum(sysm, phi, x, n))
                ratios[i, j] = est * np.exp(n * pressure - sn)
    med = np.median(ratios, axis=0)
    qhat = np.maximum(med, 1.0 / med)
    return GibbsReport(
        orders=orders, median_ratios=med, qhat=qhat, qhat_max=float(qhat.max()),
        trend=float(np.polyfit(orders, np.log(qhat), 1)[0]),
        floored=floored.sum(axis=0),
        centers=centers,
        params={"r": r, "n_mc": n_mc, "n_centers": n_centers, "seed": seed})


def bin_index_oracle(points, grid):
    """Flat C-order bin index, one temporary array per operation."""
    idx = np.zeros(len(points), dtype=np.int64)
    for j, g in enumerate(grid):
        g = int(g)
        ij = np.minimum((points[:, j] * g).astype(np.int64), g - 1)
        idx = idx * g + ij
    return idx


def _logsumexp(vals):
    m = vals.max()
    if not np.isfinite(m):
        return m
    return m + np.log(np.exp(vals - m).sum())


def pressure_oracle(sysm, phi, x, *, window=(6, 12), radii=(0.1, 0.05, 0.025),
                    leaf_radius=0.1):
    """(table, per_radius, value, spread) of estimate_pressure, one net per (n, r)."""
    x = np.asarray(x, dtype=float)
    table = []
    for r in radii:
        for n in range(window[0], window[1] + 1):
            net = eqmeas.separated_net(sysm, x, n, r, leaf_radius=leaf_radius)
            c = phi.constant_value
            if c is not None:
                lz = np.log(len(net)) + n * c
            else:
                lz = float(_logsumexp(leaf_birkhoff_sum(sysm, phi, net.base, net.params, n)))
            table.append((n, r, len(net), lz))
    per_radius = {}
    for r in radii:
        rows = [(n, lz) for (n, rr, _, lz) in table if rr == r]
        ns_r = np.array([n for n, _ in rows], dtype=float)
        lz_r = np.array([lz for _, lz in rows])
        per_radius[r] = float(np.polyfit(ns_r, lz_r, 1)[0])
    slopes = np.array(list(per_radius.values()))
    return table, per_radius, float(slopes.mean()), float(slopes.max() - slopes.min())


def mass_diagnostics_masses_oracle(sysm, phi, pressure, base_points, *,
                                   orders=range(6, 13), r=0.05, leaf_radius=0.1):
    """mass_diagnostics' masses, one reference measure per (base point, order)."""
    orders = list(orders)
    base_points = np.atleast_2d(np.asarray(base_points, dtype=float))
    masses = np.empty((len(base_points), len(orders)))
    for i, x in enumerate(base_points):
        for j, n in enumerate(orders):
            masses[i, j] = eqmeas.reference_measure(
                sysm, phi, pressure, x, n, r=r, leaf_radius=leaf_radius).mass()
    return masses


def check_separation(net, sample=64):
    """Smallest adjacent-pair d_n of a net (monotone leaves make adjacent
    pairs the extreme case).  Subsamples long nets."""
    p = net.params
    if len(p) < 2:
        return np.inf
    idx = np.arange(len(p) - 1)
    if len(idx) > sample:
        idx = idx[np.linspace(0, len(idx) - 1, sample).astype(int)]
    a = eqmeas.leaf_point(net.sys, net.base, p[idx])
    b = eqmeas.leaf_point(net.sys, net.base, p[idx + 1])
    return float(np.min(eqmeas.dyn_metric(net.sys, a, b, net.order)))


def is_spanning(net, r=None, probes_per_gap=4, max_probes=512):
    """Verify the net d_n-covers its segment at radius r (default: its own).

    Probes a dense parameter grid and measures each probe's d_n distance
    to its nearest few atoms; returns (ok, worst_covering_distance).
    """
    r = net.radius if r is None else float(r)
    p = net.params
    lo, hi = -net.leaf_radius, net.leaf_radius
    count = min(max_probes, max(8, probes_per_gap * len(p)))
    probes = np.linspace(lo, hi, count)
    j = np.clip(np.searchsorted(p, probes), 0, len(p) - 1)
    worst = 0.0
    for t, jj in zip(probes, j):
        cand = p[max(0, jj - 1): jj + 2]
        a = eqmeas.leaf_point(net.sys, net.base, np.full(len(cand), t))
        b = eqmeas.leaf_point(net.sys, net.base, cand)
        worst = max(worst, float(np.min(eqmeas.dyn_metric(net.sys, a, b, net.order))))
    return worst <= r + 1e-12, worst


def bowen_constants(sys, phi, n_max=10, r=0.05, base_points=None, seed=0):
    """Measured Bowen distortion constants (Q_u, Q_cs) of a potential.

    Q_u bounds |S_n phi(x) - S_n phi(y)| over y in the order-n unstable
    Bowen ball of radius r around x; Q_cs does the same along the
    centre-stable chart.  Estimated on a sample of base points by probing
    the extreme offsets of each ball; exact 0 for constant potentials.
    """
    if phi.constant_value is not None:
        return 0.0, 0.0
    if base_points is None:
        rng = np.random.default_rng(seed)
        base_points = rng.random((24, sys.dim))
    q_u = 0.0
    q_cs = 0.0
    for x in np.atleast_2d(base_points):
        for n in range(1, n_max + 1):
            w = eqmeas.ball_width(sys, n, r)
            s0 = eqmeas.birkhoff_sum(sys, phi, x, n)
            for t in (-w, w):
                q_u = max(q_u, abs(eqmeas.birkhoff_sum(sys, phi, sys.unstable_chart(x, t), n) - s0))
            for sgn in (-1.0, 1.0):
                s = np.full(sys.dim - 1, sgn * r / np.sqrt(sys.dim - 1))
                q_cs = max(q_cs, abs(eqmeas.birkhoff_sum(sys, phi, sys.cs_chart(x, s), n) - s0))
    return q_u, q_cs
