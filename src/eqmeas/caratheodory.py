"""Weighted covers by dynamical balls, the induced critical exponent, and
leaf reference measures.

A cover element of order n on an unstable leaf is the parameter trace of a
d_n ball, an interval of half-width w_n around its center, priced at
exp(S_n phi(center) - alpha * n).  The infimum cover cost over orders
n >= N grows or decays in N according to the sign of (pressure - alpha),
and the critical alpha is located by bisection on that trend.  Reference
measures place the same weights on maximal separated nets.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import birkhoff_sum, leaf_point
from .bowen import separated_net


@dataclasses.dataclass(eq=False)
class CoverSolution:
    """Cost of one truncated cover problem.

    cost is an upper bound attained by an explicit cover; lower_bound is a
    per-length bound valid for every cover using the same order window
    (None when the strategy cannot certify one).
    """

    cost: float
    lower_bound: float | None
    strategy: str
    alpha: float
    order_min: int
    span: int
    table: list


def cover_cost(sysm, phi, x, segment, alpha, order_min, *, span=6, r=0.05,
               strategy="auto", candidate_cap=400_000):
    """Cheapest weighted cover of a leaf-parameter segment.

    segment is a parameter interval (a, b) on the unstable leaf through x.
    Orders range over [order_min, order_min + span].  Strategies:

    - "chain": arithmetic single-order covers, exact for constant
      potentials (closed form, any size);
    - "dp": optimal mixed-order cover over a candidate grid of interval
      centers (half-width steps), solved as a shortest-path sweep;
    - "walk": greedy frontier cover for non-constant potentials too large
      for dp; upper bound only.

    "auto" picks chain for constant potentials, dp when the candidate
    count stays under candidate_cap, walk otherwise.
    """
    a, b = float(segment[0]), float(segment[1])
    if not b > a:
        raise ValueError("segment must have positive length")
    if order_min < 1 or span < 0:
        raise ValueError("bad order window")
    orders = range(order_min, order_min + span + 1)
    widths = {n: r * sysm.leaf_rate ** (-(n - 1)) for n in orders}
    length = b - a

    if strategy == "auto":
        if phi.constant_value is not None:
            strategy = "chain"
        else:
            total = sum(int(length / (widths[n] / 2)) + 3 for n in orders)
            strategy = "dp" if total <= candidate_cap else "walk"

    if strategy == "chain":
        c = phi.constant_value
        if c is None:
            raise ValueError("chain strategy requires a constant potential")
        table = []
        best = np.inf
        dens = np.inf
        for n in orders:
            k = int(np.ceil(length / (2 * widths[n])))
            cost_n = k * np.exp(n * (c - alpha))
            dens = min(dens, np.exp(n * (c - alpha)) / (2 * widths[n]))
            table.append((n, k, cost_n))
            best = min(best, cost_n)
        return CoverSolution(best, length * dens, "chain", alpha, order_min, span, table)

    if strategy == "dp":
        los, his, ws = [], [], []
        table = []
        dens = np.inf
        for n in orders:
            w = widths[n]
            step = w / 2
            centers = np.arange(a - w / 2, b + w / 2 + step / 2, step)
            sn = birkhoff_sum(sysm, phi, leaf_point(sysm, x, centers), n)
            weight = np.exp(sn - n * alpha)
            los.append(centers - w)
            his.append(centers + w)
            ws.append(weight)
            dens = min(dens, float(weight.min()) / (2 * w))
            table.append((n, len(centers), float(weight.min()), float(weight.max())))
        cost = _min_cover_dp(np.concatenate(los), np.concatenate(his),
                             np.concatenate(ws), a, b)
        return CoverSolution(cost, length * dens, "dp", alpha, order_min, span, table)

    if strategy == "walk":
        frontier = a
        cost = 0.0
        table = []
        guard = 0
        while frontier < b:
            guard += 1
            if guard > 10**7:
                raise RuntimeError("cover walk failed to terminate")
            best = None
            for n in orders:
                w = widths[n]
                c = frontier + w
                price = np.exp(float(birkhoff_sum(sysm, phi, leaf_point(sysm, x, c), n))
                               - n * alpha)
                d = price / (2 * w)
                if best is None or d < best[0]:
                    best = (d, price, w, n)
            cost += best[1]
            frontier += 2 * best[2]
            table.append((best[3], frontier))
        return CoverSolution(cost, None, "walk", alpha, order_min, span,
                             [("pieces", len(table))])

    raise ValueError(f"unknown strategy {strategy!r}")


def _min_cover_dp(lo, hi, w, a, b):
    """Optimal cost to cover [a, b] with closed weighted intervals.

    Classic sweep over right endpoints with a range-min tree over reached
    positions: dp[p] = cheapest cover of [a, p], extended by any interval
    whose left end touches a reached position.
    """
    reach = np.minimum(hi, b)
    keep = (lo < b) & (reach > a) & (reach > lo)
    lo, reach, w = lo[keep], reach[keep], w[keep]
    if len(lo) == 0:
        return np.inf
    order = np.argsort(reach, kind="stable")
    lo, reach, w = lo[order], reach[order], w[order]
    pos = np.unique(np.concatenate([[a], reach]))
    size = 1
    while size < len(pos):
        size *= 2
    tree = np.full(2 * size, np.inf)

    def update(i, v):
        i += size
        if v < tree[i]:
            tree[i] = v
            i >>= 1
            while i:
                tree[i] = min(tree[2 * i], tree[2 * i + 1])
                i >>= 1

    def query_from(i0):
        res, l, r = np.inf, i0 + size, len(pos) + size
        while l < r:
            if l & 1:
                res = min(res, tree[l])
                l += 1
            if r & 1:
                r -= 1
                res = min(res, tree[r])
            l >>= 1
            r >>= 1
        return res

    update(int(np.searchsorted(pos, a)), 0.0)
    best = np.inf
    right_idx = np.searchsorted(pos, reach)
    left_idx = np.searchsorted(pos, lo - 1e-12, side="left")
    for j in range(len(lo)):
        m = query_from(left_idx[j])
        if not np.isfinite(m):
            continue
        v = m + w[j]
        update(right_idx[j], v)
        if reach[j] >= b - 1e-12:
            best = min(best, v)
    return best


def caratheodory_dim(sysm, phi, x, segment, *, order_range=(4, 8), r=0.05,
                     span=6, tol=0.02, bracket=None, strategy="auto"):
    """Critical exponent of the truncated cover costs, by bisection.

    trend(alpha) is the least-squares slope of log cost over the base
    orders in order_range; the returned bracket [lo, hi] pins the sign
    change to width <= tol.  The default starting bracket is widened by
    doubling until the trend signs differ (a few attempts), since a wrong
    user bracket is the common failure.
    """
    orders = list(range(order_range[0], order_range[1] + 1))
    if len(orders) < 3:
        raise ValueError("need at least three base orders for a trend")

    def trend(alpha):
        logs = []
        for n in orders:
            sol = cover_cost(sysm, phi, x, segment, alpha, n, span=span, r=r,
                             strategy=strategy)
            if not np.isfinite(sol.cost) or sol.cost <= 0:
                raise ArithmeticError(f"degenerate cover cost at alpha={alpha}")
            logs.append(np.log(sol.cost))
        return float(np.polyfit(orders, logs, 1)[0])

    if bracket is None:
        c = phi.constant_value if phi.constant_value is not None else 0.0
        lo, hi = c + 1e-3, c + 2.0 * np.log(sysm.leaf_rate) + 0.5
    else:
        lo, hi = float(bracket[0]), float(bracket[1])
    t_lo, t_hi = trend(lo), trend(hi)
    for _ in range(8):
        if t_lo > 0:
            break
        lo -= (hi - lo)
        t_lo = trend(lo)
    for _ in range(8):
        if t_hi < 0:
            break
        hi += (hi - lo)
        t_hi = trend(hi)
    if not (t_lo > 0 > t_hi):
        raise ValueError(f"could not bracket the critical exponent in [{lo}, {hi}]")
    evals = [(lo, t_lo), (hi, t_hi)]
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        t_mid = trend(mid)
        evals.append((mid, t_mid))
        if t_mid > 0:
            lo = mid
        else:
            hi = mid
    return {"dim": 0.5 * (lo + hi), "lo": lo, "hi": hi, "evals": evals,
            "orders": orders, "tol": tol}


# -- reference measures -----------------------------------------------------


@dataclasses.dataclass(eq=False)
class LeafMeasure:
    """Atomic measure on an unstable leaf segment.

    Atoms sit at net parameters; weights are exp(S_N phi - N * pressure).
    Unnormalized on purpose: the total mass is itself a diagnostic.
    """

    sys: object
    base: np.ndarray
    order: int
    radius: float
    leaf_radius: float
    params: np.ndarray
    weights: np.ndarray

    def mass(self):
        return float(self.weights.sum())

    def points(self):
        return leaf_point(self.sys, self.base, self.params)

    def segment_mass(self, a, b):
        """Mass carried by parameters in the closed interval [a, b]."""
        sel = (self.params >= a) & (self.params <= b)
        return float(self.weights[sel].sum())

    def cell_masses(self, edges):
        idx = np.searchsorted(edges, self.params, side="right") - 1
        ok = (idx >= 0) & (idx < len(edges) - 1)
        return np.bincount(idx[ok], weights=self.weights[ok],
                           minlength=len(edges) - 1)


def reference_measure(sysm, phi, pressure, x, order, *, r=0.05, leaf_radius=0.1):
    """Carathéodory-normalized leaf measure at the given order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    net = separated_net(sysm, x, order, r, leaf_radius)
    sn = birkhoff_sum(sysm, phi, net.points(), order)
    sn = np.broadcast_to(np.asarray(sn, dtype=float), net.params.shape)
    weights = np.exp(sn - order * pressure)
    return LeafMeasure(sys=sysm, base=np.asarray(x, dtype=float), order=order,
                       radius=r, leaf_radius=leaf_radius,
                       params=net.params, weights=weights)


def mass_diagnostics(sysm, phi, pressure, base_points, *, orders=range(6, 13),
                     r=0.05, leaf_radius=0.1):
    """Reference-measure masses across base points and orders.

    Returns the global max/min mass ratio and the worst per-base-point
    log-mass slope in the order; a pressure value fitted off by delta
    shows up here as a slope of about +-delta.
    """
    orders = list(orders)
    base_points = np.atleast_2d(np.asarray(base_points, dtype=float))
    masses = np.empty((len(base_points), len(orders)))
    for i, x in enumerate(base_points):
        for j, n in enumerate(orders):
            masses[i, j] = reference_measure(
                sysm, phi, pressure, x, n, r=r, leaf_radius=leaf_radius).mass()
    slopes = [float(np.polyfit(orders, np.log(row), 1)[0]) for row in masses]
    return {
        "masses": masses,
        "orders": orders,
        "ratio": float(masses.max() / masses.min()),
        "worst_slope": float(max(np.abs(slopes))),
        "slopes": slopes,
    }
