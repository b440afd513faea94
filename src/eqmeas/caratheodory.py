"""Weighted covers by dynamical balls, the induced critical exponent, and
leaf reference measures.

A cover element of order n on an unstable leaf is the parameter trace of a
d_n ball, an interval of half-width w_n around its center, priced at
exp(S_n phi(center) - alpha * n).  At each order the cover used is the
arithmetic one, k_n = ceil(length / 2 w_n) abutting intervals.  Its log
price is L_n - n alpha, where L_n = log k_n + n c for a constant potential
c and the logsumexp of S_n phi over the centers otherwise; L_n does not
depend on alpha.  The cost of the truncated problem with base order N is
the cheapest of these covers over orders N..N+SPAN.

A single-order cover keeps the critical exponent.  By bounded distortion,
S_n phi varies by at most a constant over a d_n ball, so the optimal
mixed-order cover over the same window costs at least the arithmetic one
divided by a factor that does not depend on N (measured: about 1.04 for the
cos potential on cat at base orders 4 and 5).  The log costs then differ by
a bounded amount, which leaves their growth rate in N unchanged.  That cost
grows or decays in N according to the sign of (pressure - alpha), and the
critical alpha is located by bisection on that trend.  Reference measures
place the same weights on maximal separated nets.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import leaf_birkhoff_sum, leaf_point
from .bowen import MAX_CENTERS, ball_width, separated_net
from .pressure import _leaf_log_sum

# Orders a truncated cover problem looks past its base order.
SPAN = 6

@dataclasses.dataclass(eq=False)
class CoverSolution:
    """Cost of one truncated cover problem, in log scale.

    log_cost is attained by an explicit cover; log_lower_bound bounds every
    cover using the same order window (None unless the potential is
    constant).  table rows are (n, k_n, log price of the order-n cover).
    """

    log_cost: float
    log_lower_bound: float | None
    span: int
    table: list
    strategy = "chain"  # the only cover; bench/tracer.py counts covers by it

    @property
    def cost(self):
        return float(np.exp(self.log_cost))

    @property
    def lower_bound(self):
        return None if self.log_lower_bound is None else float(np.exp(self.log_lower_bound))


def _log_sums(sysm, phi, x, segment, orders, r):
    """(k_n, L_n) for each order: size and alpha-free log price of its cover."""
    a, b = float(segment[0]), float(segment[1])
    if not b > a:
        raise ValueError("segment must have positive length")
    c = phi.constant_value
    sizes = {n: int(np.ceil((b - a) / (2 * ball_width(sysm, n, r)))) for n in orders}
    over = [n for n in orders if sizes[n] > MAX_CENTERS]
    if c is None and over:
        raise ArithmeticError(f"cover of order {over[0]} needs {sizes[over[0]]} "
                              f"centers (limit {MAX_CENTERS})")
    sums = {}
    for n, k in sizes.items():
        log_z = _leaf_log_sum(phi, n, k, lambda: leaf_birkhoff_sum(
            sysm, phi, x, a + ball_width(sysm, n, r) * (2 * np.arange(k) + 1), n))
        if not np.isfinite(log_z):
            raise ArithmeticError(f"degenerate cover cost at order {n}")
        sums[n] = (k, float(log_z))
    return sums


def cover_cost(sysm, phi, x, segment, alpha, order_min, *, r=0.05):
    """Cheapest arithmetic single-order cover of a leaf-parameter segment.

    segment is a parameter interval (a, b) on the unstable leaf through x.
    Orders range over [order_min, order_min + SPAN]; each is priced as in
    the module docstring, in log scale, so any alpha gives a finite cost.
    The result bounds the optimal mixed-order cover from above, within a
    factor bounded in order_min (equal to it for constant potentials).
    Non-constant potentials raise ArithmeticError beyond MAX_CENTERS
    centers at one order.
    """
    if order_min < 1:
        raise ValueError("order_min must be >= 1")
    orders = range(order_min, order_min + SPAN + 1)
    sums = _log_sums(sysm, phi, x, segment, orders, r)
    table = [(n, k, log_z - n * alpha) for n, (k, log_z) in sums.items()]
    log_lower = None
    if phi.constant_value is not None:
        # every order-n interval costs exp(n (c - alpha)) and covers 2 w_n
        log_lower = np.log(segment[1] - segment[0]) + min(
            n * (phi.constant_value - alpha) - np.log(2 * ball_width(sysm, n, r))
            for n in orders)
    return CoverSolution(min(row[2] for row in table), log_lower, SPAN, table)


def caratheodory_dim(sysm, phi, x, segment, *, r=0.05, tol=0.02):
    """Critical exponent of the truncated cover costs, by bisection.

    trend(alpha) is the least-squares slope of log cost over the base
    orders 4..8; the returned bracket [lo, hi] pins the sign change to
    width <= tol.  The per-order log sums are computed once, so each trend
    evaluation is a minimum over the window per base order.

    The start is [c + 0.001, c + 2 log(leaf_rate) + 0.5], with c = 0 unless
    phi is the constant c.  The root lies near c + log(leaf_rate) for a
    constant phi and within max |phi| of log(leaf_rate) otherwise, so the
    start holds it for every config the CLI schema accepts (amplitude <=
    0.5) whose segment spans a few base-order balls.  Else a side is
    widened by doubling, up to 8 times, until the trend signs differ: cos
    with amplitude 5 on cat widens hi from 2.42 to 9.70, and a segment
    inside one ball (leaf_radius 1e-9) can widen lo and return about c.
    """
    orders = list(range(4, 9))
    sums = _log_sums(sysm, phi, x, segment, range(orders[0], orders[-1] + SPAN + 1), r)

    def trend(alpha):
        logs = [min(sums[m][1] - m * alpha for m in range(n, n + SPAN + 1))
                for n in orders]
        return float(np.polyfit(orders, logs, 1)[0])

    c = phi.constant_value if phi.constant_value is not None else 0.0
    lo, hi = c + 1e-3, c + 2.0 * np.log(sysm.leaf_rate) + 0.5
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
    return {"dim": 0.5 * (lo + hi), "lo": lo, "hi": hi, "evals": evals, "tol": tol}


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
    c = phi.constant_value
    if c is not None:  # birkhoff_sum's closed form, without the leaf points
        sn = np.full(net.params.shape, float(order) * c)
    else:
        sn = leaf_birkhoff_sum(sysm, phi, net.base, net.params, order)
    weights = np.exp(sn - order * pressure)
    return LeafMeasure(sys=sysm, base=np.asarray(x, dtype=float), order=order,
                       leaf_radius=leaf_radius, params=net.params, weights=weights)


def mass_diagnostics(sysm, phi, pressure, base_points, *, orders=range(6, 13),
                     r=0.05, leaf_radius=0.1):
    """Reference-measure masses across base points and orders.

    Returns the masses, the global max/min mass ratio and the worst
    per-base-point log-mass slope in the order; a pressure value fitted off
    by delta shows up here as a slope of about +-delta.  A constant phi's
    masses do not depend on the base point, so each order is priced once.
    """
    orders = list(orders)
    base_points = np.atleast_2d(np.asarray(base_points, dtype=float))
    masses = np.empty((len(base_points), len(orders)))
    for i, x in enumerate(base_points):
        if i and phi.constant_value is not None:
            masses[i] = masses[0]
            continue
        for j, n in enumerate(orders):
            masses[i, j] = reference_measure(
                sysm, phi, pressure, x, n, r=r, leaf_radius=leaf_radius).mass()
    slopes = [float(np.polyfit(orders, np.log(row), 1)[0]) for row in masses]
    return {
        "masses": masses,
        "orders": orders,
        "ratio": float(masses.max() / masses.min()),
        "worst_slope": float(max(np.abs(slopes))),
    }
