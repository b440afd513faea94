"""Evolved leaf measures, binned phase measures, and the structural probes
run against them: Bowen-ball mass ratios, holonomy transport, conditional
densities on rectangles, and transitivity / regularity checks.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from .bowen import ball_width, check_atom_limit, net_size
from . import core
from .core import (_CELL, _cells, _net_phases, _phases, _powers, leaf_point, mod1,
                   torus_dist, wrap)
from .caratheodory import LeafMeasure, atom_weight, equal_mass, reference_measure

MASS_TOL = 1e-9
# Most cloud points gibbs_ratio steps at once (at least one centre's n_mc):
# bounds its clouds, densities and distance temporaries.
GIBBS_POINTS = 2 ** 13
# Most atoms evolve_average follows; larger nets are thinned to this.
ATOM_BUDGET = 10 ** 6
# Least B at which evolve counts a constant potential's atoms by runs.  On the
# default 231,120-atom cat, skew and slowprod nets (2-core Xeon), a step by runs
# takes 0.8-1.0 ms at B = 16 and 1.6 ms at B = 8; atom by atom, 0.9-1.15 ms.
RUN_MIN = 16
# Most subcells disintegrate makes at once (at least one bin's 4^d): bounds
# its subcell points and their frame coordinates.
SUBCELL_POINTS = 2 ** 12
# Centre-stable distance within which holonomy_jacobian transports between leaves.
HOLONOMY_R0 = 0.2


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
        idx = _bin_index(_unit_points(points), grid)
        m = np.bincount(idx, weights=weights, minlength=int(np.prod(grid))).astype(float)
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
        return _bin_index(_unit_points(points), self.grid)

    def density(self, points):
        """Piecewise-constant density (mass per unit volume) at points."""
        return self.masses[self.bin_index(points)] * float(np.prod(self.grid))

    @functools.cached_property
    def _cdf(self):
        return (cdf := self.masses.cumsum()) / cdf[-1]

    def sample(self, count, rng):
        """Draw points: categorical over bins, uniform inside each bin.  The bins
        are rng.choice(masses.size, count, p=masses)'s, from a cdf built once."""
        flat = self._cdf.searchsorted(rng.random(count), side="right")
        coords = np.column_stack(np.unravel_index(flat, self.grid)).astype(float)
        jitter = rng.random((count, len(self.grid)))
        return (coords + jitter) / np.asarray(self.grid, dtype=float)


def _unit_points(points):
    """points as an (N, d) float array, checked to lie in [0, 1]^d, column by
    column in memory: _bin_index then runs its elementwise steps in long loops."""
    points = np.asfortranarray(np.atleast_2d(np.asarray(points, dtype=float)))
    if not ((points >= 0.0) & (points <= 1.0)).all():
        raise ValueError("point coordinates must lie in [0, 1]")
    return points


def _bin_index(points, grid):
    """The package's one bin rule: flat C-order bin index of (N, d) points in [0, 1]^d."""
    g = np.asarray(grid, dtype=float)
    place = [float(math.prod(grid[j + 1:])) for j in range(len(grid))]  # C order
    cells = np.multiply(points, g)
    # mod1 gives 1.0 for tiny negative coordinates; the clamp keeps each cell < g
    np.minimum(cells, g - 1, out=cells)
    return np.matmul(place, np.floor(cells, out=cells).T,
                     out=np.empty(len(points), dtype=np.int64), casting="unsafe")


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
        inside = np.abs(u) <= self.du
        for j in range(cs.shape[-1]):  # by column: np.max over one or two entries is slow
            inside &= np.abs(cs[..., j]) <= self.dcs
        return inside

    def volume(self):
        d = self.sys.dim
        return 2 * self.du * (2 * self.dcs) ** (d - 1) * abs(
            float(np.linalg.det(self.sys.frame)))


# -- pushforward and the scaling identity ------------------------------------


def pushforward(sysm, lm):
    """Image of a leaf measure under one forward step.

    Atoms move with the map; on linear leaves the parameters are multiplied by
    the signed eigenvalue (kept ascending) and weights ride along: mass is kept.
    """
    order = slice(None, None, 1 if sysm.eigenvalue > 0 else -1)
    return LeafMeasure(sys=sysm, base=sysm.step_fwd(lm.base), params=lm.params[order]
                       * sysm.eigenvalue, weights=lm.weights[order].copy())


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
    thin: int = 1


def evolve_average(sysm, phi, pressure, x, *, steps=40, grid=None, order=10,
                   r=0.05, leaf_radius=1.0, checkpoints=()):
    """Birkhoff average of pushforwards of a leaf reference measure.

    Bins the normalized reference measure at each of its first `steps`
    forward images (the measure itself included) and averages the binned
    snapshots.  Nets larger than ATOM_BUDGET are decimated
    deterministically (every k-th atom), which preserves the closed-form
    weights up to the reported thinning factor.  A constant phi's atoms
    share one weight, so its net is never built; a non-constant phi raises
    ArithmeticError (bowen.check_atom_limit) on a net of more than
    MAX_CENTERS atoms before building it.

    The leaf through x runs in the base plane, so its atoms share x's fiber
    point at every step, and an atom's bin is its base bin times the number
    of fiber cells plus the fiber point's cell.  The base is exact: atom i
    is P + i D in 64-bit phases (core._net_phases, D times thin when
    thinned), so at step k it is Z = P_k + i D_k mod 2^64 with (P_k, D_k)
    from the power table, and its bin on an axis of g cells is floor(Z g /
    2^64): Z's top bits when both base axes have powers of two, else from
    Z's 32-bit halves.  A step's base-cell sums are np.add.at's of the
    weights in atom order, over blocks of core.BLOCK atoms.  For a constant
    phi and B >= RUN_MIN, B the largest power of two with B |D_k| < 2^64 // g
    on both axes (D_k signed), B atoms cross at most one cell edge an axis,
    at an offset one uint64 floor division gives: cells count their atoms
    by these runs, and n atoms hold S[n] = (0.0 + w) + ... + w, as add.at adds.
    """
    grid = (32,) * sysm.dim if grid is None else tuple(int(g) for g in grid)
    if len(grid) != sysm.dim:
        raise ValueError(f"grid has {len(grid)} axes, the system has dim {sysm.dim}")
    x = np.asarray(x, dtype=float)
    count, c = net_size(sysm, order, r, leaf_radius), phi.constant_value
    thin = -(-count // ATOM_BUDGET)
    n_atoms = -(-count // thin)  # every thin-th atom of the net
    check_atom_limit(phi, {order: count})
    if c is None:
        w = reference_measure(sysm, phi, pressure, x, order, r=r,
                              leaf_radius=leaf_radius).weights[::thin]
        w /= w.sum()
    else:
        v = atom_weight(c, pressure, order)
        w = np.broadcast_to(v / equal_mass(v, n_atoms), (n_atoms,))
    words = _net_phases(sysm, x, -leaf_radius, ball_width(sysm, order, r))[0]
    words[:, 1] *= np.uint64(thin)
    phases = np.matmul(_powers(sysm, steps)[:steps], words)  # (P_k, D_k) per axis
    g = np.array(grid[:2], dtype=np.uint64)[:, None]
    # g = 2^s cells on both axes: floor(Z g / 2^64) is the top s bits of Z
    top = None if (g & (g - 1)).any() else 64 - np.log2(g).astype(np.uint64)
    # z_0 g_1 + z_1 for cells z, as (Z_0 >> t_0) << s_1 + (Z_1 >> t_1) on 2^s cells
    place = (np.multiply, g[1]) if top is None else (np.left_shift, 64 - top[1])
    # E_c = ceil(c 2^64 / g), the first phase of cell c on an axis, mod 2^64 (E_g = 0)
    edges = [np.array([-(-(c << 64) // n) % 2 ** 64 for c in range(n + 1)], dtype=np.uint64)
             for n in grid[:2]]

    def bins(z, lo, flat=True):  # phases z (2, N) to cells on each axis in place, or flat in z[0]
        if top is not None:
            z >>= top
        else:  # floor(Z g / 2^64), the bin on each axis, from Z's 32-bit halves
            np.multiply(np.bitwise_and(z, 2 ** 32 - 1, out=lo), g, out=lo)
            lo >>= 32
            np.multiply(np.right_shift(z, 32, out=z), g, out=z)
            z += lo
            z >>= 32
        if not flat:
            return z
        place[0](z[0], place[1], out=z[0])
        z[0] += z[1]
        return z[0].view(np.int64)

    # (base cell, fiber cell); raveled in C order, the flat index of _bin_index
    acc = np.zeros((grid[0] * grid[1], int(np.prod(grid[2:]))))
    row = np.empty(len(acc))  # one step's base-cell sums
    i = np.arange(min(core.BLOCK, n_atoms), dtype=np.uint64)
    z, low, di = np.empty((3, 2, len(i)), dtype=np.uint64)
    sums = np.zeros(1)  # S[n]: n weights added one by one to 0.0, grown as counts need
    snaps, marks, fib = {}, set(int(c) for c in checkpoints), mod1(x[2:])
    for k, (p, d) in enumerate(phases.transpose(0, 2, 1)):
        if k and sysm.fiber is not None:
            fib = sysm.fiber[0](fib)
        row.fill(0.0)
        signed = d.view(np.int64).tolist()
        q = min((2 ** 64 // n - 1) // max(abs(v), 1) for n, v in zip(grid, signed))
        b = 1 << q.bit_length() - 1 if q else 0  # B atoms cross at most one edge an axis
        if c is not None and b >= RUN_MIN:  # row: the atom counts
            # core.BLOCK // 8 blocks a chunk: their runs' phases take a quarter of z, low, di
            for start in range(0, n_atoms, span := b * max(1, core.BLOCK // 8)):
                stop = min(start + span, n_atoms)
                s = np.arange(start, stop, b, dtype=np.uint64)  # the block starts
                zs = np.multiply.outer(d, s) + p[:, None]
                cell, cuts = bins(zs.copy(), np.empty_like(zs), False), []
                for j, v in enumerate(signed):  # each block's first atom past the edge ahead
                    e = edges[j][cell[j] + 1] - 1 - zs[j] if v >= 0 else zs[j] - edges[j][cell[j]]
                    cuts.append(np.minimum(e // np.uint64(max(abs(v), 1)) + 1, b) + s)
                # s <= each cut <= s + b, the next block's start: (s, min, max) block by
                # block is sorted
                runs = np.stack((s, np.minimum(*cuts), np.maximum(*cuts)), 1).ravel()
                np.minimum(runs, stop, out=runs)
                zr = np.multiply.outer(d, runs) + p[:, None]
                row += np.bincount(bins(zr, np.empty_like(zr)), np.diff(
                    runs, append=np.uint64(stop)), len(row))
            if (most := int(row.max())) >= len(sums):
                sums = np.cumsum(np.r_[0.0, np.full(most, w[0])])
            sums.take(row.astype(np.int64), out=row)
        else:
            np.multiply(i, d[:, None], out=di)  # i D_k, once a step
            for start in range(0, n_atoms, core.BLOCK):
                zb, lo = z[:, :n_atoms - start], low[:, :n_atoms - start]
                np.add(di[:, :zb.shape[1]], (p + np.uint64(start) * d)[:, None], out=zb)
                np.add.at(row, bins(zb, lo), w[start:start + core.BLOCK])
        acc[:, _bin_index(fib[None], grid[2:])[0]] += row
        if (k + 1) in marks:
            snaps[k + 1] = PhaseMeasure(grid, acc / (k + 1))
    return EvolveResult(measure=PhaseMeasure(grid, np.divide(acc, steps, out=acc)),
                        snapshots=snaps, steps=steps, atom_count=n_atoms, thin=thin)


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

    Centres are taken in groups of GIBBS_POINTS // n_mc (at least one),
    whose clouds are drawn by one rng call (the stream of one call per
    centre).  d_n is a running maximum, so a point whose distance to its
    centre has reached r lies outside every later ball: hits, True while
    d_k < r at every order so far, is only ever cleared, and a group's
    centres are stepped with only the points they still hold, as one
    array, one step_fwd per order.  Points that have left are dropped once
    they are half of those followed (so copying stays within a constant
    factor of stepping), and with a constant phi a group that holds no
    point is not stepped.  The estimates read the full-length densities
    and hits, and the step, the distances and the per-centre means are
    computed row by row, so the report depends neither on GIBBS_POINTS
    nor on which points are followed.  S_n phi of a centre is summed along
    its stepped row (n c for a constant phi = c), which is birkhoff_sum's
    value unless a centre coordinate is exactly 1.0.

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
        g = len(x)
        coeff = (2 * rng.random((g, n_mc, sysm.dim)) - 1) * exts
        cloud = mod1(x + coeff @ sysm.frame).reshape(-1, sysm.dim)
        dens = mu.density(cloud).reshape(g, n_mc)
        hits = torus_dist(x, cloud.reshape(g, n_mc, -1)) < r
        hit = hits.reshape(-1)  # a view: clearing hit clears hits
        at = np.arange(g * n_mc)  # the followed points, as indices into hit
        z = np.concatenate((x[:, 0], cloud))  # rows 0..g-1: the centres
        for n in range(1, n_max + 1):
            if n > 1:
                keep = hit[at]
                if 2 * np.count_nonzero(keep) <= len(at):  # half or more have left
                    at = np.compress(keep, at)
                    z = np.concatenate((z[:g], np.compress(keep, z[g:], axis=0)))
                if c is None or len(at):
                    z = sysm.step_fwd(z)
                    hit[at] &= torus_dist(np.take(z, at // n_mc, axis=0), z[g:]) < r
            if c is None:
                sn = phi(z[:g]) if n == 1 else sn + phi(z[:g])
            if n in pos:
                j = pos[n]
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
    the leaves are within HOLONOMY_R0 along the centre-stable frame.  The
    z-side measure is built on its own leaf with enough radius to hold the
    transported window.
    """
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    u0, cs0 = sysm.split(y - z)
    if np.max(np.abs(cs0)) > HOLONOMY_R0:
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
    lands in one (u-cell, plaque) slot.  Only the non-empty bins that can
    meet the rectangle are refined (_subcells), whole bins at a time, at
    most SUBCELL_POINTS subcells, and only the subcells inside it are kept,
    in bin order: the result equals that of refining every non-empty bin
    and does not depend on SUBCELL_POINTS.
    """
    shape = _plaque_shape(sysm.dim - 1, n_plaques)
    parts = [(np.empty(0), np.empty((0, sysm.dim - 1)), np.empty(0))]  # no bin may meet rect
    for pts, w in _subcells(mu, rect, 4):
        inside = rect.contains(pts)
        parts.append((*rect.coords(pts[inside]), w[inside]))
    u, cs, w = (np.concatenate(a) for a in zip(*parts))
    if not len(w):
        raise ValueError("rectangle carries no mass")
    iu = np.clip(((u + rect.du) / (2 * rect.du / n_u)).astype(int), 0, n_u - 1)
    ipl = np.zeros(len(w), dtype=np.int64)
    for j, pj in enumerate(shape):
        step = 2 * rect.dcs / pj
        ij = np.clip(((cs[:, j] + rect.dcs) / step).astype(int), 0, pj - 1)
        ipl = ipl * pj + ij
    npl = int(np.prod(shape))
    joint = np.bincount(iu * npl + ipl, weights=w, minlength=n_u * npl).reshape(n_u, npl)
    mass = float(w.sum())
    return ConditionalFamily(rect=rect, joint=joint / mass, u_edges=np.linspace(
        -rect.du, rect.du, n_u + 1), plaque_shape=tuple(shape), mass_inside=mass)


def _subcells(mu, rect, subsplit):
    """(points, weights) of the subcells of the non-empty bins that can meet
    rect, whole bins at a time, in bin order.

    A subcell's centre p lies within (1 - 1/subsplit) h_j of its bin's
    centre c on axis j, h = 1 / (2 grid).  So wrap(p - anchor)_j is
    delta_j + (p - c)_j, delta = wrap(c - anchor), or, when c lies within
    h_j of the seam (|delta_j| >= 1/2 - h_j), possibly that -+ 1 (the other
    wrap branch).  On each branch the subcell's frame coordinates lie within
    sum_j h_j |coframe[j, i]| of the branch's; a bin is kept when some
    branch lies within du and dcs plus that (and 1e-9 for rounding).
    """
    d = len(mu.grid)
    grid = np.asarray(mu.grid, dtype=float)
    nz = np.nonzero(mu.masses)[0]
    half = (0.5 / grid)[:, None]  # by axis, bins in columns: reductions run down d rows
    delta = wrap((np.array(np.unravel_index(nz, mu.grid)) + 0.5) / grid[:, None]
                 - rect.anchor[:, None])
    other = np.where(np.abs(delta) >= 0.5 - half, -np.sign(delta), 0.0)
    cof = rect.sys.coframe.T
    bound = np.r_[rect.du, np.full(d - 1, rect.dcs)][:, None] + np.abs(cof) @ half + 1e-9
    near = np.zeros(len(nz), dtype=bool)
    for branch in itertools.product((0.0, 1.0), repeat=d):
        moved = delta + np.asarray(branch)[:, None] * other
        near |= np.logical_and.reduce(np.abs(cof @ moved) <= bound)
    nz = nz[near]
    offs = (np.array(np.meshgrid(*[np.arange(subsplit)] * d, indexing="ij"))
            .reshape(d, -1).T + 0.5) / subsplit
    bins = max(1, SUBCELL_POINTS // len(offs))
    for lo in range(0, len(nz), bins):
        part = nz[lo:lo + bins]
        coords = np.column_stack(np.unravel_index(part, mu.grid)).astype(float)
        pts = (coords[:, None, :] + offs[None, :, :]).reshape(-1, d) / grid
        yield pts, np.repeat(mu.masses[part] / subsplit ** d, subsplit ** d)


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
    conditional mass above 1e-4.  A constant phi's reference measure has the
    same params and weights on every leaf, so it is built once.
    """
    rect = fam.rect
    npl = fam.joint.shape[1]
    worst = 1.0
    rows = []
    ref = None
    for k in range(npl):
        col = fam.joint[:, k]
        if col.sum() <= 0:
            continue
        cond = col / col.sum()
        if ref is None or phi.constant_value is None:
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


def birkhoff_probe(sysm, mu, psi, *, n_steps=10_000, n_samples=200, seed=0):
    """Forward Birkhoff averages of a potential table psi from mu-samples.

    psi (a core.Potential) reads base axes only (axis mod dim in {0, 1}, else
    IndexError before sampling).  The orbits are exact: a sample's base enters
    once as 64-bit phases X = floor(x 2^64) (a coordinate 1.0 is 0); a mode (a,
    j, kappa) reads Z = kappa (A^k X)_j mod 2^64 off a table of the powers of A
    mod 2^64, k below a block of as many steps as fit core.BLOCK phases (at
    least one), and a cos(2 pi Z / 2^64) off a table of 4,096 cells by a Taylor
    step.  The steps are added in step order, so the result does not depend on
    core.BLOCK.  A unique ergodic average shows up as small dispersion, the
    spread of the averages across starting points.  n_steps and n_samples must
    be at least 1 (ValueError), with n_steps n_samples <= MAX_POINT_STEPS.
    """
    if n_steps < 1 or n_samples < 1:
        raise ValueError(f"birkhoff_probe needs n_steps, n_samples >= 1, "
                         f"got {n_steps}, {n_samples}")
    check_atom_limit(None, {f"birkhoff_steps {n_steps} and n_samples {n_samples}":
                            n_steps * n_samples}, "probe")
    steps = max(1, core.BLOCK // n_samples)
    m = min(n_steps, steps)  # every block is computed whole; the last one is read in part
    power = _powers(sysm, m)
    cos_cell, sin_cell = _cells()
    # kappa times row j of A^k, k < m; a fiber axis indexes past the base's two
    modes = [(a, power[:m, j % sysm.dim] * np.uint64(kappa % 2 ** 64))
             for a, j, kappa in psi.modes]
    x = _phases(mu.sample(n_samples, np.random.default_rng(seed))[:, :2].T)  # axis, point
    z, h = np.empty((2, m, n_samples), dtype=np.uint64)
    t, v = np.empty((2, m, n_samples))
    cell, u = h.view(np.int64), z.view(float)  # u: z as floats
    sums = np.zeros((1 + m * len(modes), n_samples))  # row 0: the running total
    rows = sums[1:].reshape(m, len(modes), n_samples)  # per step, a row per mode
    for start in range(0, n_steps, steps):
        x = np.matmul(power[m], x) if start else x  # A^m of the last block's start
        for i, (a, kappa_row) in enumerate(modes):
            np.matmul(kappa_row, x, out=z)  # Z: two uint64 products and an add
            np.right_shift(z, 52, out=h)  # the cell
            z &= 2 ** 52 - 1  # the 52 bits below it, as the
            z |= 0x3FF0000000000000  # float 1 + bits / 2^52
            np.subtract(u, 1.5, out=t)  # theta / _CELL, in [-1/2, 1/2); z is free from here
            np.multiply(t, t, out=u)
            np.multiply(u, -a * _CELL ** 3 / 6, out=v)  # a sin theta
            v += a * _CELL
            v *= t
            np.multiply(u, a * _CELL ** 4 / 24, out=t)  # a cos theta
            t -= a * _CELL ** 2 / 2
            t *= u
            t += a
            t *= cos_cell.take(cell, out=u, mode="clip")
            v *= sin_cell.take(cell, out=u, mode="clip")
            np.subtract(t, v, out=rows[:, i])
        # one reduce adds the block's rows to row 0 in step order, as per-step sums round
        np.add.reduce(sums[:min(steps, n_steps - start) * len(modes) + 1], axis=0, out=sums[0])
    fwd = (sums[0] + n_steps * psi.const) / n_steps
    return {"forward": fwd, "dispersion": float(fwd.std()), "mean": float(fwd.mean())}


def transitivity_probe(sysm, x, y, *, delta=0.1, k_max=14):
    """Smallest k <= k_max at which the image of the leaf delta-segment at x
    meets the delta-neighborhood of y's local centre-stable set, as {"k": k,
    "param": t} with f^k(leaf point at t) the meeting point, or None.

    d_k = A^k x - y comes exact for every k from one product of the power
    table (core._powers) with the 64-bit phases of x and y.  A deck
    translation m is a hit at k when d_k + m, read through coframe as (u, s),
    has |s| <= delta and |u| <= delta (|lambda|^k + 1): t = clip(-u /
    lambda^k, +-delta) then lands within delta.  The search keeps the hit of
    least |u| over m_1 within +-ceil(min(delta |lambda|^k + 2, max(64, 8 /
    delta))), past which a long segment's stable residues equidistribute, and
    the three m_2 nearest s = 0.  The fiber, stepped by fiber[0], must lie
    within delta of y's.  ArithmeticError (bowen.check_atom_limit) before
    any search when the window at k_max holds over MAX_CENTERS.
    """
    x, y = mod1(x), mod1(y)
    lam, rate = sysm.eigenvalue, sysm.leaf_rate
    spans = [math.ceil(min(delta * rate ** k + 2, max(64.0, 8.0 / delta)))
             for k in range(k_max + 1)]
    check_atom_limit(None, {f"delta {delta:g} and k_max {k_max}": 3 * (2 * spans[-1] + 1)},
                     "transitivity window")
    d = np.matmul(_powers(sysm, k_max), _phases(x[:2])) - _phases(y[:2])
    us = np.matmul(d.view(np.int64) * 2.0 ** -64, sysm.coframe[:2, :2])  # (u, s) of d, per k
    (c_u1, c_s1), (c_u2, c_s2) = sysm.coframe[:2, :2]
    fiber = x[2:]
    for k, ((u_d, s_d), span) in enumerate(zip(us, spans)):
        fiber = sysm.fiber[0](fiber) if k and sysm.fiber else fiber
        if torus_dist(fiber, y[2:]) > delta:
            continue
        m1 = np.arange(-span, span + 1)
        m2 = np.rint((-s_d - c_s1 * m1) / c_s2) + np.arange(-1.0, 2.0)[:, None]
        s = s_d + c_s1 * m1 + c_s2 * m2
        u = u_d + c_u1 * m1 + c_u2 * m2
        u = u[(np.abs(s) <= delta) & (np.abs(u) <= delta * rate ** k + delta)]
        if u.size:
            return {"k": k, "param": float(np.clip(-u[np.argmin(np.abs(u))] / lam ** k,
                                                   -delta, delta))}
    return None
