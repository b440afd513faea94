"""Evolved leaf measures, binned phase measures, and the structural probes
run against them: Bowen-ball mass ratios, holonomy transport, conditional
densities on rectangles, and transitivity / regularity checks.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .bowen import ball_width
from .core import iterate, leaf_point, mod1, torus_dist
from .caratheodory import LeafMeasure, reference_measure

MASS_TOL = 1e-9
# Atoms per block of evolve_average's step and binning passes, and most
# cloud points gibbs_ratio steps at once (at least one centre's n_mc).
EVOLVE_BLOCK = 2 ** 14
GIBBS_POINTS = 2 ** 15
# Most atoms evolve_average follows; larger nets are thinned to this.
ATOM_BUDGET = 10 ** 6


# -- binned measures on the torus -------------------------------------------


@dataclasses.dataclass(eq=False)
class PhaseMeasure:
    """Probability measure binned on a per-axis grid over [0,1)^d.

    masses is flat in C order; grid is the bin count per axis.
    """

    grid: tuple
    masses: np.ndarray

    def __post_init__(self):
        self.grid = tuple(int(g) for g in self.grid)
        self.masses = np.asarray(self.masses, dtype=float).ravel()
        if self.masses.size != int(np.prod(self.grid)):
            raise ValueError("mass array does not match the grid")
        if abs(self.masses.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {self.masses.sum()!r}, not 1")

    @classmethod
    def uniform(cls, grid):
        n = int(np.prod(grid))
        return cls(tuple(grid), np.full(n, 1.0 / n))

    @classmethod
    def from_points(cls, points, grid, weights=None):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = _bin_index(points, grid)
        n = int(np.prod(grid))
        if weights is None:
            m = np.bincount(idx, minlength=n).astype(float)
        else:
            m = np.bincount(idx, weights=weights, minlength=n)
        s = m.sum()
        if s <= 0:
            raise ValueError("no mass to bin")
        return cls(tuple(grid), m / s)

    def reshaped(self):
        return self.masses.reshape(self.grid)

    def total(self):
        return float(self.masses.sum())

    def tv(self, other):
        """Total variation distance; grids must match exactly."""
        if self.grid != other.grid:
            raise ValueError(f"grid mismatch {self.grid} vs {other.grid}")
        return 0.5 * float(np.abs(self.masses - other.masses).sum())

    def bin_index(self, points):
        return _bin_index(np.atleast_2d(np.asarray(points, dtype=float)), self.grid)

    def density(self, points):
        """Piecewise-constant density (mass per unit volume) at points."""
        return self.masses[self.bin_index(points)] * float(np.prod(self.grid))

    def sample(self, count, rng):
        """Draw points: categorical over bins, uniform inside each bin."""
        flat = rng.choice(self.masses.size, size=count, p=self.masses)
        coords = np.column_stack(np.unravel_index(flat, self.grid)).astype(float)
        jitter = rng.random((count, len(self.grid)))
        return (coords + jitter) / np.asarray(self.grid, dtype=float)


def _bin_index(points, grid, out=None):
    """Flat C-order bin index of (N, d) points, written into out when given."""
    idx = np.empty(len(points), dtype=np.int64) if out is None else out
    idx.fill(0)
    ij = np.empty_like(idx)
    for j, g in enumerate(grid):
        g = int(g)
        np.multiply(points[:, j], g, out=ij, casting="unsafe")  # truncates, as astype
        # mod1 gives 1.0 for tiny negative coordinates; the clamp keeps ij < g
        np.minimum(ij, g - 1, out=ij)
        idx *= g
        idx += ij
    return idx


# -- rectangles --------------------------------------------------------------


@dataclasses.dataclass(eq=False)
class Rectangle:
    """Product neighborhood |u| <= du, max_j |cs_j| <= dcs around an anchor.

    Membership is read in frame coordinates of the wrapped displacement
    from the anchor, so the set is closed under the bracket by
    construction.
    """

    sys: object
    anchor: np.ndarray
    du: float
    dcs: float

    def __post_init__(self):
        self.anchor = mod1(self.anchor)
        if self.du <= 0 or self.dcs <= 0:
            raise ValueError("rectangle half-sizes must be positive")

    def coords(self, points):
        u, cs = self.sys.split(np.asarray(points, dtype=float) - self.anchor)
        return u, cs

    def contains(self, points):
        u, cs = self.coords(points)
        return (np.abs(u) <= self.du) & (np.max(np.abs(cs), axis=-1) <= self.dcs)

    def volume(self):
        d = self.sys.dim
        return 2 * self.du * (2 * self.dcs) ** (d - 1) * abs(
            float(np.linalg.det(self.sys.frame)))


# -- pushforward and the scaling identity ------------------------------------


def pushforward(sysm, lm):
    """Image of a leaf measure under one forward step.

    Atoms move with the map; on linear leaves the parameters stretch by
    the leaf rate while weights ride along unchanged, so total mass is
    conserved exactly.
    """
    return LeafMeasure(
        sys=sysm,
        base=sysm.step_fwd(lm.base),
        order=lm.order,
        leaf_radius=lm.leaf_radius * sysm.leaf_rate,
        params=lm.params * sysm.leaf_rate,
        weights=lm.weights.copy(),
    )


def scaling_check(sysm, phi, pressure, x, *, order=10):
    """Compare m_{f(x)}(f(A)) with the integral of e^(pressure - phi) dm_x.

    A is the parameter window [-0.05, 0.05] on x's leaf.  Both sides are
    built from independent reference measures (r = 0.05, leaf radius 0.1
    and its image); the report is their ratio's deviation from 1.
    """
    a, b = -0.05, 0.05
    lam = sysm.leaf_rate
    m_x = reference_measure(sysm, phi, pressure, x, order)
    fx = sysm.step_fwd(np.asarray(x, dtype=float))
    m_fx = reference_measure(sysm, phi, pressure, fx, order, leaf_radius=0.1 * lam)
    lhs = m_fx.segment_mass(min(lam * a, lam * b), max(lam * a, lam * b))
    sel = (m_x.params >= a) & (m_x.params <= b)
    pts = leaf_point(sysm, x, m_x.params[sel])
    rhs = float(np.sum(np.exp(pressure - phi(pts)) * m_x.weights[sel]))
    ratio = lhs / rhs if rhs > 0 else np.inf
    return {"deviation": abs(ratio - 1.0)}


# -- evolve and average -------------------------------------------------------


@dataclasses.dataclass(eq=False)
class EvolveResult:
    measure: PhaseMeasure
    snapshots: dict
    steps: int
    atom_count: int
    initial_mass: float
    thin: int = 1


def evolve_average(sysm, phi, pressure, x, *, steps=40, grid=None, order=10,
                   r=0.05, leaf_radius=1.0, checkpoints=()):
    """Birkhoff average of pushforwards of a leaf reference measure.

    Bins the normalized reference measure at each of its first `steps`
    forward images (the measure itself included) and averages the binned
    snapshots.  Nets larger than ATOM_BUDGET are decimated
    deterministically (every k-th atom), which preserves the closed-form
    weights up to the reported thinning factor.

    The leaf through x runs in the base plane, so its atoms share x's fiber
    point at every step: the base coordinates are held as one (2, N) array
    and the fiber as one point, and the bin of an atom is its base bin
    times the number of fiber cells plus the fiber point's cell.  Each step
    maps and bins the atoms EVOLVE_BLOCK at a time into one (N,) index
    array, and one bincount per step adds each cell's weights in atom
    order.  An atom's image and bin depend on that atom alone (the 2x2
    product rounds the same in every block), so the result does not depend
    on EVOLVE_BLOCK.
    """
    grid = (32,) * sysm.dim if grid is None else tuple(int(g) for g in grid)
    if len(grid) != sysm.dim:
        raise ValueError(f"grid has {len(grid)} axes, the system has dim {sysm.dim}")
    lm = reference_measure(sysm, phi, pressure, x, order, r=r, leaf_radius=leaf_radius)
    t, w = lm.params, lm.weights
    thin = 1
    if len(t) > ATOM_BUDGET:
        thin = int(np.ceil(len(t) / ATOM_BUDGET))
        t, w = t[::thin], w[::thin]
    w = w / w.sum()
    base = mod1(lm.base[:2, None] + sysm.frame[0, :2, None] * t)  # unstable_chart's base
    fib, cells = mod1(lm.base[2:]), []
    for k in range(steps):
        if k and sysm.fiber is not None:
            fib = sysm.fiber[0](fib)
        cells.append(_bin_index(fib[None], grid[2:])[0])
    # (base cell, fiber cell); raveled in C order, the flat index of _bin_index
    acc = np.zeros((int(np.prod(grid[:2])), int(np.prod(grid[2:]))))
    idx = np.empty(len(t), dtype=np.int64)
    buf = np.empty((2, min(EVOLVE_BLOCK, len(t))))
    snaps = {}
    marks = set(int(c) for c in checkpoints)
    for k, cell in enumerate(cells):
        for start in range(0, len(t), EVOLVE_BLOCK):
            b = base[:, start:start + EVOLVE_BLOCK]
            if k:
                p = np.matmul(sysm.matrix, b, out=buf[:, :b.shape[1]])
                np.subtract(p, np.floor(p, out=b), out=b)  # b = mod1(p)
            _bin_index(b.T, grid[:2], out=idx[start:start + EVOLVE_BLOCK])
        acc[:, cell] += np.bincount(idx, weights=w, minlength=len(acc))
        if (k + 1) in marks:
            snaps[k + 1] = PhaseMeasure(grid, acc / (k + 1))
    return EvolveResult(
        measure=PhaseMeasure(grid, acc / steps),
        snapshots=snaps,
        steps=steps,
        atom_count=len(t),
        initial_mass=lm.mass(),
        thin=thin,
    )


def convergence_profile(result):
    """(checkpoint, TV distance of its average to the final average) rows."""
    return [(n, result.measure.tv(snap)) for n, snap in sorted(result.snapshots.items())]


def pairwise_evolve_tv(sysm, phi, pressure, base_points, **kwargs):
    """TV distances between evolve averages started from different leaves."""
    results = [evolve_average(sysm, phi, pressure, x, **kwargs) for x in base_points]
    tvs = []
    for i in range(len(results)):
        for j in range(i + 1, len(results)):
            tvs.append(((i, j), results[i].measure.tv(results[j].measure)))
    return {"tvs": tvs, "max_tv": max(t for _, t in tvs) if tvs else 0.0}


# -- Gibbs-type bounds --------------------------------------------------------


@dataclasses.dataclass(eq=False)
class GibbsReport:
    orders: list
    median_ratios: np.ndarray
    qhat: np.ndarray
    qhat_max: float
    trend: float
    floored: np.ndarray
    centers: np.ndarray
    params: dict

    def flagged(self):
        return bool(self.floored.any())


def gibbs_ratio(sysm, phi, mu, pressure, *, orders=range(3, 9), r=0.2,
                n_centers=12, n_mc=8192, seed=0):
    """Ratios mu(B_n(x, r)) / exp(-n * pressure + S_n phi(x)).

    Ball masses are Monte Carlo integrals of mu's binned density over an
    adapted box around each center (unstable extent matched to the widest
    requested order, the other frame directions at r, both padded by 5%),
    with the d_n indicator evaluated on true orbits.  Orders whose
    indicator never fires get their estimate floored at one Monte Carlo
    quantum and are flagged; the floor is a resolution statement, not a
    measurement.

    Centres are taken in groups of up to GIBBS_POINTS // n_mc, whose clouds
    are drawn by one rng call (the stream of one call per centre) and
    stepped with their centres as one array, one step_fwd per order.  The
    step, the distances and the per-centre means are computed row by row,
    so the report does not depend on GIBBS_POINTS.  S_n phi of a centre is
    summed along its stepped row (n c for a constant phi = c), which is
    birkhoff_sum's value unless a centre coordinate is exactly 1.0.

    The report aggregates per-order medians m_n over centers,
    qhat_n = max(m_n, 1/m_n), and the least-squares trend of log qhat_n.
    """
    orders = list(orders)
    n_min, n_max = min(orders), max(orders)
    if n_min < 1:
        raise ValueError("orders must be >= 1")
    rng = np.random.default_rng(seed)
    centers = mu.sample(n_centers, rng)
    exts = np.full(sysm.dim, r * 1.05)
    exts[0] = ball_width(sysm, n_min, r) * 1.05
    volume = float(np.prod(2 * exts)) * abs(float(np.linalg.det(sysm.frame)))
    pos = {n: j for j, n in enumerate(orders)}
    ratios = np.full((n_centers, len(orders)), np.nan)
    floored = np.zeros((n_centers, len(orders)), dtype=bool)
    group = max(1, GIBBS_POINTS // n_mc)
    c = phi.constant_value
    for lo in range(0, n_centers, group):
        x = centers[lo:lo + group, None]
        coeff = (2 * rng.random((len(x), n_mc, sysm.dim)) - 1) * exts
        cloud = mod1(x + coeff @ sysm.frame)
        dens = mu.density(cloud.reshape(-1, sysm.dim)).reshape(len(x), n_mc)
        dmax = torus_dist(x, cloud)
        z = np.concatenate((x, cloud), axis=1)  # row 0 of each: the centre
        for n in range(1, n_max + 1):
            if n > 1:
                z = sysm.step_fwd(z)
                dmax = np.maximum(dmax, torus_dist(z[:, :1], z[:, 1:]))
            if c is None:
                sn = phi(z[:, 0]) if n == 1 else sn + phi(z[:, 0])
            if n in pos:
                j = pos[n]
                hits = dmax < r
                est = volume * np.mean(dens * hits, axis=1)
                low = ~hits.any(axis=1) | (est <= 0)
                if low.any():
                    est[low] = volume * np.maximum(np.mean(dens[low], axis=1), 1e-300) / n_mc
                    floored[lo:lo + group, j] = low
                ratios[lo:lo + group, j] = est * np.exp(
                    n * pressure - (sn if c is None else n * c))
    med = np.median(ratios, axis=0)
    qhat = np.maximum(med, 1.0 / med)
    return GibbsReport(
        orders=orders,
        median_ratios=med,
        qhat=qhat,
        qhat_max=float(qhat.max()),
        trend=float(np.polyfit(orders, np.log(qhat), 1)[0]),
        floored=floored.sum(axis=0),
        centers=centers,
        params={"r": r, "n_mc": n_mc, "n_centers": n_centers, "seed": seed},
    )


# -- holonomy -----------------------------------------------------------------


def holonomy_jacobian(sysm, phi, pressure, y, z, *, order=8, r=0.05,
                      leaf_radius=0.1, n_cells=16):
    """Cell-mass ratios of reference measures across the holonomy.

    Bins the middle 80% of y's leaf segment into n_cells, transports the cell
    edges to z's leaf, and compares reference masses cell by cell.  On
    straight leaves the centre-stable holonomy is a parameter translation
    by offset, the unstable coordinate of y - z; it is defined only when
    the leaves are within r0 along the centre-stable frame.  The z-side
    measure is built on its own leaf with enough radius to hold the
    transported window.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    u0, cs0 = sysm.split(y - z)
    if np.max(np.abs(cs0)) > sysm.r0:
        raise ValueError("holonomy defined only between nearby leaves")
    m_y = reference_measure(sysm, phi, pressure, y, order, r=r, leaf_radius=leaf_radius)
    span = 0.8 * leaf_radius
    m_z = reference_measure(sysm, phi, pressure, z, order, r=r,
                            leaf_radius=span + abs(float(u0)) + 4 * r)
    edges = np.linspace(-span, span, n_cells + 1)
    cells_y = m_y.cell_masses(edges)
    cells_z = m_z.cell_masses(edges + float(u0))
    ok = (cells_y > 0) & (cells_z > 0)
    if not ok.all():
        raise ArithmeticError("empty holonomy cells; enlarge the window or order")
    ratios = cells_z / cells_y
    return {"ratios": ratios, "min": float(ratios.min()), "max": float(ratios.max()),
            "offset": float(u0)}


# -- conditionals on rectangles ----------------------------------------------


@dataclasses.dataclass(eq=False)
class ConditionalFamily:
    """Joint (u-cell, plaque) histogram of a measure restricted to a rectangle."""

    rect: Rectangle
    joint: np.ndarray          # (n_u, n_plaques), sums to 1
    u_edges: np.ndarray
    plaque_shape: tuple
    mass_inside: float

    def factor(self):
        return self.joint.sum(axis=0)

    def u_marginal(self):
        return self.joint.sum(axis=1)

    def conditional(self, k):
        col = self.joint[:, k]
        s = col.sum()
        if s <= 0:
            raise ValueError(f"plaque {k} carries no mass")
        return col / s

    def plaque_center_cs(self, k):
        shape = self.plaque_shape
        ij = np.unravel_index(k, shape)
        dcs = self.rect.dcs
        step = 2 * dcs / np.asarray(shape, dtype=float)
        return -dcs + (np.asarray(ij, dtype=float) + 0.5) * step


def _plaque_shape(ncs, total):
    k = max(1, int(round(total ** (1.0 / ncs))))
    return (k,) * ncs


def disintegrate(sysm, mu, rect, *, n_u=16, n_plaques=32):
    """Split mu inside a rectangle into plaque conditionals.

    Bins of mu are refined into 4^d equal subcells to soften bin
    boundaries against the rectangle's frame-aligned faces; each subcell
    lands in one (u-cell, plaque) slot.
    """
    shape = _plaque_shape(sysm.dim - 1, n_plaques)
    sub_pts, sub_w = _subcells(mu, 4)
    inside = rect.contains(sub_pts)
    if not inside.any():
        raise ValueError("rectangle carries no mass")
    u, cs = rect.coords(sub_pts[inside])
    w = sub_w[inside]
    iu = np.clip(((u + rect.du) / (2 * rect.du / n_u)).astype(int), 0, n_u - 1)
    ipl = np.zeros(len(w), dtype=np.int64)
    for j, pj in enumerate(shape):
        step = 2 * rect.dcs / pj
        ij = np.clip(((cs[:, j] + rect.dcs) / step).astype(int), 0, pj - 1)
        ipl = ipl * pj + ij
    npl = int(np.prod(shape))
    joint = np.zeros((n_u, npl))
    np.add.at(joint, (iu, ipl), w)
    mass = float(w.sum())
    return ConditionalFamily(rect=rect, joint=joint / mass, u_edges=np.linspace(
        -rect.du, rect.du, n_u + 1), plaque_shape=tuple(shape), mass_inside=mass)


def _subcells(mu, subsplit):
    d = len(mu.grid)
    grid = np.asarray(mu.grid, dtype=float)
    nz = np.nonzero(mu.masses)[0]
    coords = np.column_stack(np.unravel_index(nz, mu.grid)).astype(float)
    offs = (np.array(np.meshgrid(*[np.arange(subsplit)] * d, indexing="ij"))
            .reshape(d, -1).T + 0.5) / subsplit
    pts = (coords[:, None, :] + offs[None, :, :]).reshape(-1, d) / grid
    w = np.repeat(mu.masses[nz] / subsplit ** d, subsplit ** d)
    return pts, w


def product_structure_check(sysm, mu, rect, *, n_u=8):
    """TV distance between the joint (u, plaque) histogram, with 4^(dim-1)
    plaques, and the product of its marginals.  On straight leaves holonomy
    is a parameter translation, so local product structure is exactly
    independence of the two coordinates."""
    fam = disintegrate(sysm, mu, rect, n_u=n_u, n_plaques=4 ** (sysm.dim - 1))
    prod = np.outer(fam.u_marginal(), fam.factor())
    return {"tv": 0.5 * float(np.abs(fam.joint - prod).sum())}


def density_vs_reference(sysm, phi, pressure, fam, *, r=0.05, order=8):
    """Conditional u-densities against leaf reference measures.

    For each plaque, builds the reference measure on the leaf through the
    plaque's center and compares cell masses: the reported constant is
    the worst multiplicative deviation of
    conditional / (reference / reference window mass) over cells with
    conditional mass above 1e-4.
    """
    rect = fam.rect
    npl = fam.joint.shape[1]
    worst = 1.0
    rows = []
    for k in range(npl):
        col = fam.joint[:, k]
        if col.sum() <= 0:
            continue
        cond = col / col.sum()
        y = sysm.cs_chart(rect.anchor, fam.plaque_center_cs(k))
        ref = reference_measure(sysm, phi, pressure, y, order, r=r,
                                leaf_radius=rect.du * 1.05)
        cells = ref.cell_masses(fam.u_edges)
        window = ref.segment_mass(-rect.du, rect.du)
        use = (cond > 1e-4) & (cells > 0)
        if not use.any():
            continue
        ratio = (cond[use] / cells[use]) * window
        c0 = float(np.max(np.maximum(ratio, 1.0 / ratio)))
        worst = max(worst, c0)
        rows.append((k, c0))
    if not rows:
        raise ArithmeticError("no populated plaques to compare")
    return {"c0": worst, "per_plaque": rows}


# -- ergodicity and transitivity probes ---------------------------------------

# Orbit points per observable call in birkhoff_probe.
PROBE_BLOCK = 256


def birkhoff_probe(sysm, mu, observable, *, n_steps=10_000, n_samples=200, seed=0):
    """Forward and backward Birkhoff averages of a base observable from mu-samples.

    observable maps (..., 2) arrays of base points to (...) arrays and sees
    PROBE_BLOCK orbit points of both directions per call.  The base map
    ignores the fiber, so only the base is stepped.  A unique ergodic average
    shows up as small dispersion across starting points and forward/backward
    agreement: agree_fraction is the share of starting points whose two
    averages differ by at most 0.05.
    """
    rng = np.random.default_rng(seed)
    pts = mu.sample(n_samples, rng)[:, :2]  # mu is binned on the full grid; keep the base
    # base points only (a fiber index raises IndexError): forward block[i, 0]
    # and backward block[i, 1] advance together, each stored (2, n_samples)
    mats = np.stack([sysm.matrix, sysm.inverse])
    block = np.empty((min(n_steps, PROBE_BLOCK), 2, 2, n_samples))
    p = np.stack([pts.T, pts.T])
    total = np.zeros((2, n_samples))
    for start in range(0, n_steps, PROBE_BLOCK):
        m = min(PROBE_BLOCK, n_steps - start)
        for i in range(m):
            q = block[i]
            if start + i:
                np.matmul(mats, p, out=q)
                q -= np.floor(q)  # mod1 in place
            else:
                q[...] = p
            p = q
        # (m, 2, n_samples, 2) points; rows added in step order, as per-step sums round
        for row in observable(block[:m].transpose(0, 1, 3, 2)):
            total += row
    fwd, bwd = total / n_steps
    return {
        "forward": fwd,
        "backward": bwd,
        "dispersion": float(np.std(fwd)),
        "mean": float(np.mean(fwd)),
        "agree_fraction": float(np.mean(np.abs(fwd - bwd) <= 0.05)),
    }


def transitivity_probe(sysm, x, y, *, delta=0.1, k_max=14):
    """Smallest k <= k_max such that the forward image of the leaf
    delta-segment at x meets the delta-neighborhood of y's local
    centre-stable set, or None.

    Works on the closed-form leaf geometry: at time k the image segment
    is a straight run of length 2*delta*rate^k along the unstable
    direction, and meeting the target reduces to an integer search over
    deck translations inside a thin slab.  Coordinates past the first two
    form the fiber, which the step map carries along; a candidate k also
    needs the fiber of f^k(x) within delta of y's.
    """
    x = mod1(np.asarray(x, dtype=float))
    y = mod1(np.asarray(y, dtype=float))
    lam = sysm.leaf_rate
    e_u = sysm.frame[0, :2]
    e_cs = sysm.frame[1, :2]
    z = x
    for k in range(k_max + 1):
        if k:
            z = sysm.step_fwd(z)
        if torus_dist(z[2:], y[2:]) <= delta:
            t = _leaf_hit(z[:2], y[:2], e_u, e_cs, delta, lam ** k)
            if t is not None:
                w = iterate(sysm, leaf_point(sysm, x, t), k)
                uw, csw = sysm.split(w - y)
                if not (abs(uw) > delta * 1.01 or np.max(np.abs(csw)) > delta * 1.01):
                    return {"k": k, "param": t}
    return None


def _leaf_hit(b0, by, e_u, e_cs, delta, stretch):
    """Deck-translation search: does the stretched leaf segment through b0
    pass within the delta slab around by?  Returns the launch parameter."""
    d0 = b0 - by
    u_d = float(np.dot(d0, e_u))
    s_d = float(np.dot(d0, e_cs))
    reach = delta * stretch
    # once the stretched segment spans several fundamental domains, a small
    # window of deck translations already contains a slab hit (the stable
    # residues equidistribute), so the enumeration never needs to cover reach
    m_span = int(np.ceil(min(reach + 2, max(64.0, 8.0 / delta))))
    m1 = np.arange(-m_span, m_span + 1)
    # lattice vectors with cs-component inside the slab: solve for m2
    c_u1, c_u2 = e_u[0], e_u[1]
    c_s1, c_s2 = e_cs[0], e_cs[1]
    if abs(c_s2) < 1e-12:
        return None
    center = (-s_d - c_s1 * m1) / c_s2
    for shift in (0, -1, 1):
        m2 = np.round(center).astype(int) + shift
        s_val = s_d + c_s1 * m1 + c_s2 * m2
        u_val = u_d + c_u1 * m1 + c_u2 * m2
        good = (np.abs(s_val) <= delta) & (np.abs(u_val) <= reach + delta)
        if good.any():
            idx = np.nonzero(good)[0]
            i = int(idx[np.argmin(np.abs(u_val[idx]))])
            t = -u_val[i] / stretch
            if abs(t) <= delta:
                return float(t)
            # clamp: a boundary launch point still lands within 2*delta
            t = float(np.clip(t, -delta, delta))
            if abs(u_val[i] + t * stretch) <= delta:
                return t
    return None
