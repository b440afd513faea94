"""Reference implementations the tests hold the package against.

The step maps here are opaque closures over full (..., dim) points, the
slowed product mapping the fiber of every row; evolve_oracle follows each
atom's base in Python integers over 2^64 and maps the fiber point with a
step map.  The package computes the same numbers from a system's base
matrix and fiber map, and the tests compare the two bit for bit.  The closures multiply by
contiguous transposes, as the package does: by the view m.T numpy maps a
single point with another kernel, which rounds 3x + 2y (M32) unlike the
same point in a batch.

gibbs_ratio_oracle estimates the Bowen-ball masses one centre at a time,
disintegrate_oracle refines every non-empty bin of a measure into subcells,
whether or not it can meet the rectangle, and density_vs_reference_oracle
builds a reference measure for every plaque.
flow_time_one_oracle is the slowed-flow time-one map as it was before it
skipped the arc solve for points that need none: it solves on every call,
evaluates the chord quadrature for every live row in every round and for
all rows at once, and carries full-size arrays from round to round.
leaf_sum_oracle computes S_n phi on the ideal leaf in mpmath at 60 digits:
exact parameters and base points, the exact unstable eigenvector, the base
stepped by the integer matrix.  pressure_oracle builds one separated net
and one partition sum per (order, radius), as the package did before
reading coarser radii by stride; mass_diagnostics_masses_oracle builds one reference measure per
(base point, order), as mass_diagnostics still does for a non-constant
potential; check_separation and is_spanning certify separated nets in the
d_n metric, and bowen_constants measures the distortion constants the
closed forms rest on.  birkhoff_probe_oracle steps the probe's 64-bit
phases one step at a time in Python integers and sums the potential in
mpmath, with one rounding per average.  exact_landing certifies a
transitivity hit on the exact orbit of its launch point, in rationals.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np

import eqmeas
from eqmeas.catalog import CAT_MATRIX, GOLDEN_ROTATION, _gauss_legendre
from eqmeas.core import leaf_birkhoff_sum, mod1, wrap
from eqmeas import equilibrium
from eqmeas.equilibrium import (ConditionalFamily, EvolveResult, GibbsReport,
                                PhaseMeasure)

# a hyperbolic matrix with an entry (3) whose products are not all exact
M32 = [[3, 2], [1, 1]]
# a hyperbolic matrix with negative entries: its steps can land a hair below
# 0, where mod1 gives 1.0
M_SIGNED = [[2, -1], [-1, 1]]


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


def _kappa_oracle(profile, t):
    t = np.asarray(t, dtype=float)
    base = np.where(t > 0, (np.clip(t, 1e-300, None) / profile.t0) ** profile.exponent, 0.0)
    u = np.clip((t - 0.9 * profile.t0) / (0.1 * profile.t0), 0.0, 1.0)
    s = u ** 3 * (10 + u * (6 * u - 15))
    return np.where(t >= profile.t0, 1.0, (1 - s) * base + s)


def _chord_delay_oracle(profile, c, u):
    """D(c, u) with every row's (rows, 32) quadrature temporaries at once."""
    x, w = _gauss_legendre()
    t0, e = profile.t0, profile.exponent
    g = 1.0 - e
    h = np.sqrt(np.maximum(t0 ** 2 - c ** 2, 0.0))
    h9 = np.sqrt(np.maximum((0.9 * t0) ** 2 - c ** 2, 0.0))
    v = np.minimum(np.abs(u), h)
    core = np.minimum(v, h9)
    zmax = np.minimum(np.arcsinh(core / np.maximum(c, 1e-300)), 20.0)
    z = zmax[:, None] * x
    rest = (np.exp(g * z) * ((1 + np.exp(-2 * z)) ** g - 1) * w).sum(axis=1) * zmax
    lead = ((core + np.hypot(c, core)) ** g - c ** g) / g
    ring = np.maximum(v - h9, 0.0)
    t = np.hypot(c[:, None], h9[:, None] + ring[:, None] * x)
    ring_delay = ((1 / _kappa_oracle(profile, t) - 1) * w).sum(axis=1) * ring
    return np.sign(u) * (t0 ** e * 2 ** -g * (lead + c ** g * rest) - core + ring_delay)


def _arc_length_oracle(profile, c, u):
    """The arc solve on full-size arrays, gathering and scattering the live rows."""
    goal = 1.0 + _chord_delay_oracle(profile, c, u)
    s = np.ones_like(u)
    lo, hi, last = np.zeros_like(u), np.ones_like(u), np.full_like(u, 2.0)
    live = np.arange(len(u))
    for _ in range(200):
        sl, cl, ul = s[live], c[live], u[live]
        f = sl + _chord_delay_oracle(profile, cl, ul + sl) - goal[live]
        lo[live] = np.where(f <= 0, sl, lo[live])
        hi[live] = np.where(f >= 0, sl, hi[live])
        nxt = sl - _kappa_oracle(profile, np.hypot(cl, ul + sl)) * f
        ok = (lo[live] < nxt) & (nxt < hi[live]) & (2 * np.abs(nxt - sl) < last[live])
        s[live] = np.where(ok | (f == 0), nxt, (lo[live] + hi[live]) / 2)
        last[live] = np.abs(s[live] - sl)
        live = live[last[live] > 1e-14]
        if not len(live):
            break
    return s


def flow_time_one_oracle(profile, pts, sign=1.0):
    """The slowed-flow time-one map, the arc solve run on every call and the
    fixed centre found by a kappa evaluation."""
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 2)
    a, b = (float(v) for v in profile.drift)
    d = wrap(flat - np.asarray(profile.center))
    span = int(0.5 + abs(b) * (1 + profile.t0)) + 1
    dy = d[:, 1:] - np.arange(-span, span + 1)
    cx = d[:, :1] - dy * a / b
    cx = np.abs(cx - np.rint(cx))
    u = sign * dy / b
    h = np.sqrt(np.maximum(profile.t0 ** 2 - cx ** 2, 0.0))
    meets = (cx < profile.t0) & (u < h) & (u + 1 > -h)
    idx = np.nonzero(meets.any(axis=1))[0]
    k = meets[idx].argmax(axis=1)
    c, u0 = cx[idx, k], u[idx, k]
    s = np.ones(len(flat))
    s[idx] = _arc_length_oracle(profile, c, u0)
    s[idx[_kappa_oracle(profile, np.hypot(c, u0)) == 0]] = 0.0
    return mod1(flat + sign * s[:, None] * np.array([a, b])).reshape(pts.shape)


def systems_with_oracles():
    """{name: (system, (forward oracle, backward oracle))}."""
    slow = eqmeas.get_system("slowprod").system
    return {
        "cat": (eqmeas.get_system("cat").system, toral_steps(CAT_MATRIX)),
        "skew": (eqmeas.get_system("skew").system, skew_steps(CAT_MATRIX, GOLDEN_ROTATION)),
        "slowprod": (slow, slowprod_steps(eqmeas.SlowFlowProfile(), CAT_MATRIX)),
        "toral32": (eqmeas.make_toral_automorphism(M32), toral_steps(M32)),
        "signed": (eqmeas.make_toral_automorphism(M_SIGNED), toral_steps(M_SIGNED)),
    }


def net_words_oracle(sysm, x, order, r, leaf_radius):
    """(P, D) per base axis of the net evolve follows, in Python integers: P =
    floor(2^64 (x + start e_u)) and D = floor(2^64 spacing e_u) from the exact
    values of the floats, start = -leaf_radius and spacing = ball_width."""
    e = [Fraction(float(v)) for v in sysm.frame[0, :2]]
    start, spacing = Fraction(-float(leaf_radius)), Fraction(float(eqmeas.ball_width(sysm, order, r)))
    return ([math.floor((Fraction(float(x[j])) + start * e[j]) * 2 ** 64) for j in range(2)],
            [math.floor(spacing * e[j] * 2 ** 64) for j in range(2)])


def evolve_oracle(sysm, step, phi, pressure, x, *, steps=40, grid=None, order=10,
                  r=0.05, leaf_radius=1.0, checkpoints=(), atom_budget=10**6):
    """evolve_average on exact orbits, in Python integers.

    Atom i of the net is the 64-bit phase P + i D per base axis, with (P, D)
    from net_words_oracle; every thin-th atom is stepped one step at a time by
    the integer matrix mod 2^64 and binned floor(X g / 2^64), which is floor(x
    g) of its coordinate x.  The fiber point is the full point x mapped by
    `step` (the fiber does not read the base) and binned by bin_index_oracle;
    the weights are the reference measure's, thinned and normalised, and
    bincount adds each cell's in atom order."""
    if grid is None:
        grid = (32,) * sysm.dim
    lm = eqmeas.reference_measure(sysm, phi, pressure, x, order, r=r,
                                  leaf_radius=leaf_radius)
    w = lm.weights
    thin = int(np.ceil(len(w) / atom_budget)) if len(w) > atom_budget else 1
    w = w[::thin] / w[::thin].sum()
    p0, d0 = net_words_oracle(sysm, x, order, r, leaf_radius)
    (m00, m01), (m10, m11) = np.rint(sysm.matrix).astype(int).tolist()
    n_fib = int(np.prod(grid[2:]))
    bins = np.empty((steps, len(w)), dtype=np.int64)
    for i in range(len(w)):
        b = [(p0[j] + i * thin * d0[j]) % 2 ** 64 for j in range(2)]
        for k in range(steps):
            if k:
                b = [(m00 * b[0] + m01 * b[1]) % 2 ** 64, (m10 * b[0] + m11 * b[1]) % 2 ** 64]
            bins[k, i] = (b[0] * grid[0] >> 64) * grid[1] + (b[1] * grid[1] >> 64)
    pt = mod1(np.asarray(x, dtype=float))[None]
    acc = np.zeros(int(np.prod(grid)))
    snaps = {}
    marks = set(int(c) for c in checkpoints)
    for k in range(steps):
        if k:
            pt = step(pt)
        fib = bin_index_oracle(pt[:, 2:], grid[2:])[0]
        acc += np.bincount(bins[k] * n_fib + fib, weights=w, minlength=len(acc))
        if (k + 1) in marks:
            snaps[k + 1] = PhaseMeasure(tuple(grid), acc / (k + 1))
    return EvolveResult(measure=PhaseMeasure(tuple(grid), acc / steps), snapshots=snaps,
                        steps=steps, atom_count=len(w), thin=thin)


def disintegrate_oracle(sysm, mu, rect, *, n_u=16, n_plaques=32):
    """disintegrate with every subcell of every non-empty bin made, whether
    or not the bin can meet the rectangle, 1,024 bins at a time (a few MB),
    and the joint table filled by np.add.at."""
    shape = equilibrium._plaque_shape(sysm.dim - 1, n_plaques)
    d = len(mu.grid)
    nz = np.nonzero(mu.masses)[0]
    offs = (np.array(np.meshgrid(*[np.arange(4)] * d, indexing="ij"))
            .reshape(d, -1).T + 0.5) / 4
    u, cs, w = [], [], []
    for lo in range(0, len(nz), 1024):
        part = nz[lo:lo + 1024]
        coords = np.column_stack(np.unravel_index(part, mu.grid)).astype(float)
        sub_pts = (coords[:, None, :] + offs[None, :, :]).reshape(-1, d) / np.asarray(
            mu.grid, dtype=float)
        sub_w = np.repeat(mu.masses[part] / 4 ** d, 4 ** d)
        inside = rect.contains(sub_pts)
        u_in, cs_in = rect.coords(sub_pts[inside])
        u.append(u_in)
        cs.append(cs_in)
        w.append(sub_w[inside])
    u, cs, w = np.concatenate(u), np.concatenate(cs), np.concatenate(w)
    if not len(w):
        raise ValueError("rectangle carries no mass")
    iu = np.clip(((u + rect.du) / (2 * rect.du / n_u)).astype(int), 0, n_u - 1)
    ipl = np.zeros(len(w), dtype=np.int64)
    for j, pj in enumerate(shape):
        step = 2 * rect.dcs / pj
        ij = np.clip(((cs[:, j] + rect.dcs) / step).astype(int), 0, pj - 1)
        ipl = ipl * pj + ij
    joint = np.zeros((n_u, int(np.prod(shape))))
    np.add.at(joint, (iu, ipl), w)
    mass = float(w.sum())
    return ConditionalFamily(rect=rect, joint=joint / mass, u_edges=np.linspace(
        -rect.du, rect.du, n_u + 1), plaque_shape=tuple(shape), mass_inside=mass)


def density_vs_reference_oracle(sysm, phi, pressure, fam, *, r=0.05, order=8):
    """density_vs_reference with a reference measure built on the leaf through
    every populated plaque's centre, whatever the potential."""
    rect = fam.rect
    worst, rows = 1.0, []
    for k in range(fam.joint.shape[1]):
        col = fam.joint[:, k]
        if col.sum() <= 0:
            continue
        y = sysm.cs_chart(rect.anchor, fam.plaque_center_cs(k))
        ref = eqmeas.reference_measure(sysm, phi, pressure, y, order, r=r,
                                       leaf_radius=rect.du * 1.05)
        cells = ref.cell_masses(fam.u_edges)
        cond = col / col.sum()
        use = (cond > 1e-4) & (cells > 0)
        if not use.any():
            continue
        ratio = (cond[use] / cells[use]) * ref.segment_mass(-rect.du, rect.du)
        c0 = float(np.max(np.maximum(ratio, 1.0 / ratio)))
        worst = max(worst, c0)
        rows.append((k, c0))
    return {"c0": worst, "per_plaque": rows}


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


def gibbs_inside_oracle(sysm, mu, *, orders=range(3, 9), r=0.2, n_centers=12, n_mc=8192,
                        pad=1.05, seed=0):
    """gibbs_ratio's centres and clouds, one centre at a time, with every
    cloud point stepped to the last order: (centres, inside), where
    inside[i, n - 1] counts the points of centre i with d_k < r at every
    order k <= n."""
    n_max = max(orders)
    rng = np.random.default_rng(seed)
    centers = mu.sample(n_centers, rng)
    exts = np.full(sysm.dim, r * pad)
    exts[0] = eqmeas.ball_width(sysm, min(orders), r) * pad
    inside = np.zeros((n_centers, n_max), dtype=int)
    for i, x in enumerate(centers):
        coeff = (2 * rng.random((n_mc, sysm.dim)) - 1) * exts
        zx, zc = x, eqmeas.mod1(x + coeff @ sysm.frame)
        still = np.ones(n_mc, dtype=bool)
        for n in range(1, n_max + 1):
            if n > 1:
                zx, zc = sysm.step_fwd(zx), sysm.step_fwd(zc)
            still &= eqmeas.torus_dist(zx, zc) < r
            inside[i, n - 1] = np.count_nonzero(still)
    return centers, inside


def bin_index_oracle(points, grid):
    """Flat C-order bin index, one temporary array per operation."""
    idx = np.zeros(len(points), dtype=np.int64)
    for j, g in enumerate(grid):
        g = int(g)
        ij = np.minimum((points[:, j] * g).astype(np.int64), g - 1)
        idx = idx * g + ij
    return idx


def leaf_sum_oracle(sysm, phi, x, start, spacing, idx, n, digits=60):
    """S_n phi at the leaf points of x at start + i * spacing, i in idx, as
    floats, on the ideal leaf: x, start and spacing are read as exact
    binary fractions, the unstable eigenvector is exact (signed as
    SystemSpec.frame), and the base is stepped by the integer matrix with no
    reduction, all at `digits` digits.  The fiber orbit is the system's own,
    from the fiber point leaf_birkhoff_sum starts at."""
    with mpmath.workdps(digits):
        (a, b), (c, d) = (map(int, row) for row in sysm.matrix)
        root = mpmath.sqrt((a + d) ** 2 - 4 * (a * d - b * c))
        lam = max(((a + d) + root) / 2, ((a + d) - root) / 2, key=abs)
        e = (mpmath.mpf(b), lam - a) if b else (lam - d, mpmath.mpf(c))
        norm = mpmath.sqrt(e[0] ** 2 + e[1] ** 2)
        lead = e[0] if e[0] else e[1]
        e = [v / norm * mpmath.sign(lead) for v in e]
        assert np.allclose([float(v) for v in e], sysm.frame[0, :2], rtol=0, atol=1e-15)
        fibs = [eqmeas.mod1(eqmeas.mod1(np.asarray(x, dtype=float)[2:]))]
        for _ in range(n - 1 if sysm.fiber else 0):
            fibs.append(sysm.fiber[0](fibs[-1]))
        out = []
        for i in idx:
            t = mpmath.mpf(float(start)) + int(i) * mpmath.mpf(float(spacing))
            p = [mpmath.mpf(float(x[0])) + t * e[0], mpmath.mpf(float(x[1])) + t * e[1]]
            total = n * mpmath.mpf(phi.const)
            for k in range(n):
                if k:
                    p = [a * p[0] + b * p[1], c * p[0] + d * p[1]]
                for amp, axis, kappa in phi.modes:
                    j = axis % sysm.dim
                    v = p[j] if j < 2 else mpmath.mpf(float(fibs[k][j - 2]))
                    total += amp * mpmath.cos(2 * mpmath.pi * kappa * mpmath.frac(v))
            out.append(float(total))
        return np.array(out)


def phase64(x):
    """The 64-bit phase of a coordinate in [0, 1]: floor(x 2^64) mod 2^64, exactly."""
    return math.floor(Fraction(float(x)) * 2 ** 64) % 2 ** 64


def exact_leaf_image(sysm, x, t, k):
    """A^k (x + t e_u) on the base, exact in the rationals of the floats x, t and
    frame[0], not reduced mod 1: the k-th image of a launch point."""
    a = [[int(v) for v in row] for row in sysm.matrix]
    p = [Fraction(float(x[j])) + Fraction(float(t)) * Fraction(float(sysm.frame[0, j]))
         for j in range(2)]
    for _ in range(k):
        p = [a[0][0] * p[0] + a[0][1] * p[1], a[1][0] * p[0] + a[1][1] * p[1]]
    return p


def exact_landing(sysm, x, y, k, t):
    """Frame coordinates (u, s) of f^k(x + t e_u) - y on the base, exact and taken
    to the nearest lattice point, read through coframe; as floats."""
    d = [p - Fraction(float(y[j])) for j, p in enumerate(exact_leaf_image(sysm, x, t, k))]
    d = [dj - round(dj) for dj in d]
    c = [[Fraction(float(v)) for v in row] for row in sysm.coframe[:2, :2]]
    return tuple(float(d[0] * c[0][i] + d[1] * c[1][i]) for i in range(2))


def cos_turns_oracle(z, digits=30):
    """cos(2 pi z / 2^64) of an integer phase z, as a float, at `digits` digits."""
    with mpmath.workdps(digits):
        return float(mpmath.cospi(mpmath.mpf(int(z) % 2 ** 64) / 2 ** 63))


def birkhoff_probe_oracle(sysm, mu, psi, *, n_steps=10_000, n_samples=200, seed=0,
                          digits=30):
    """The probe on exact orbits: each sample's base point as its 64-bit phases
    (phase64), stepped one step at a time by the integer matrix in Python
    integers mod 2^64, and psi summed along each orbit in mpmath at `digits`
    digits before one rounding to a float average."""
    b = mu.sample(n_samples, np.random.default_rng(seed))[:, :2]
    (m00, m01), (m10, m11) = np.rint(sysm.matrix).astype(int).tolist()
    modes = [(a, axis % sysm.dim, int(kappa)) for a, axis, kappa in psi.modes]
    assert all(j < 2 for _, j, _ in modes)
    fwd = np.zeros(n_samples)
    with mpmath.workdps(digits):
        for i, point in enumerate(b):
            p = [phase64(c) for c in point]
            total = mpmath.mpf(0)
            for _ in range(n_steps):
                total += mpmath.mpf(psi.const) + sum(
                    mpmath.mpf(a) * mpmath.cospi(mpmath.mpf(kappa * p[j] % 2 ** 64) / 2 ** 63)
                    for a, j, kappa in modes)
                p = [(m00 * p[0] + m01 * p[1]) % 2 ** 64, (m10 * p[0] + m11 * p[1]) % 2 ** 64]
            fwd[i] = float(total / n_steps)
    return {"forward": fwd, "dispersion": float(np.std(fwd)), "mean": float(np.mean(fwd))}


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
            net = eqmeas.separated_net(sysm, n, r, leaf_radius=leaf_radius)
            c = phi.constant_value
            if c is not None:
                lz = np.log(len(net)) + n * c
            else:
                lz = float(_logsumexp(leaf_birkhoff_sum(
                    sysm, phi, x, -leaf_radius, eqmeas.ball_width(sysm, n, r), len(net), n)))
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


def check_separation(sysm, x, n, r, leaf_radius, params, sample=64):
    """Smallest adjacent-pair d_n of the net params on the leaf through x
    (monotone leaves make adjacent pairs the extreme case).  Subsamples
    long nets; r and leaf_radius are unused, for a signature shared with
    is_spanning."""
    p = params
    if len(p) < 2:
        return np.inf
    idx = np.arange(len(p) - 1)
    if len(idx) > sample:
        idx = idx[np.linspace(0, len(idx) - 1, sample).astype(int)]
    a = eqmeas.leaf_point(sysm, x, p[idx])
    b = eqmeas.leaf_point(sysm, x, p[idx + 1])
    return float(np.min(eqmeas.dyn_metric(sysm, a, b, n)))


def is_spanning(sysm, x, n, r, leaf_radius, params, probes_per_gap=4, max_probes=512):
    """Verify the net params on the leaf through x d_n-covers
    [-leaf_radius, leaf_radius] at radius r.

    Probes a dense parameter grid and measures each probe's d_n distance
    to its nearest few atoms; returns (ok, worst_covering_distance).
    """
    p = params
    count = min(max_probes, max(8, probes_per_gap * len(p)))
    probes = np.linspace(-leaf_radius, leaf_radius, count)
    j = np.clip(np.searchsorted(p, probes), 0, len(p) - 1)
    worst = 0.0
    for t, jj in zip(probes, j):
        cand = p[max(0, jj - 1): jj + 2]
        a = eqmeas.leaf_point(sysm, x, np.full(len(cand), t))
        b = eqmeas.leaf_point(sysm, x, cand)
        worst = max(worst, float(np.min(eqmeas.dyn_metric(sysm, a, b, n))))
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
