"""Topological pressure from leafwise partition sums.

The partition sum at order n collects e^{S_n(phi)} over a maximal
r-separated set (in the d_n metric) on the unstable leaf through a base
point.  Its log grows linearly in n with slope equal to the pressure of
phi, so we fit that slope over a window of orders and several radii.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np

from .bowen import separated_net
from .core import leaf_birkhoff_sum, mod1


def _logsumexp(vals):
    vals = np.asarray(vals, dtype=float)
    m = vals.max()
    if not np.isfinite(m):
        return m
    return m + np.log(np.exp(vals - m).sum())


def log_partition_sum(sysm, phi, x, n, r, leaf_radius=0.1):
    """log of the order-n partition sum on the unstable leaf of x.

    Returns (log_z, atom_count).  Constant potentials skip the orbit
    computation entirely.
    """
    net = separated_net(sysm, x, n, r, leaf_radius=leaf_radius)
    count = len(net)
    if count == 0:
        raise ArithmeticError("empty separated net")
    c = getattr(phi, "constant_value", None)
    if c is not None:
        return np.log(count) + n * c, count
    s = leaf_birkhoff_sum(sysm, phi, net.base, net.params, n)
    return float(_logsumexp(s)), count


def partition_bounds(sysm, phi, x, n, r, leaf_radius=0.1):
    """Sandwich the order-n sum between two separation radii.

    Halving r refines the net, so the pair (log_z(r), log_z(r/2)) brackets
    how sensitive the sum is to the packing radius at this order.
    """
    lo, _ = log_partition_sum(sysm, phi, x, n, r, leaf_radius)
    hi, _ = log_partition_sum(sysm, phi, x, n, r / 2, leaf_radius)
    return lo, hi


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    per_radius: dict
    spread: float
    window: tuple
    base_point: np.ndarray
    table: list = field(repr=False, default_factory=list)


def _default_point(sysm):
    return mod1(0.2 + 0.31 * np.arange(sysm.dim))


def estimate_pressure(sysm, phi, x=None, *, window=(6, 12),
                      radii=(0.1, 0.05, 0.025), leaf_radius=0.1, jobs=1):
    """Least-squares slope of log Z_n over a window of orders.

    One slope per separation radius; the estimate is their mean and the
    spread (max minus min) is the stability diagnostic.
    """
    if x is None:
        x = _default_point(sysm)
    x = np.asarray(x, dtype=float)
    ns = np.arange(window[0], window[1] + 1)
    tasks = [(n, r) for r in radii for n in ns]

    def one(task):
        n, r = task
        lz, cnt = log_partition_sum(sysm, phi, x, int(n), r, leaf_radius)
        return int(n), r, cnt, lz

    if jobs > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as ex:
            table = list(ex.map(one, tasks))
    else:
        table = [one(t) for t in tasks]

    per_radius = {}
    for r in radii:
        rows = [(n, lz) for (n, rr, _, lz) in table if rr == r]
        ns_r = np.array([n for n, _ in rows], dtype=float)
        lz_r = np.array([lz for _, lz in rows])
        per_radius[r] = float(np.polyfit(ns_r, lz_r, 1)[0])
    slopes = np.array(list(per_radius.values()))
    return PressureEstimate(value=float(slopes.mean()),
                            per_radius=per_radius,
                            spread=float(slopes.max() - slopes.min()),
                            window=tuple(window), base_point=x, table=table)


def check_submultiplicativity(sysm, phi, x=None, *,
                              pairs=((3, 4), (4, 5), (5, 6), (4, 4)),
                              r=0.05, leaf_radius=0.1, lo=0.25, hi=4.0):
    """Ratios Z_{m+n} / (Z_m Z_n) should stay within fixed O(1) bounds."""
    if x is None:
        x = _default_point(sysm)
    cache = {}

    def lz(n):
        if n not in cache:
            cache[n] = log_partition_sum(sysm, phi, x, n, r, leaf_radius)[0]
        return cache[n]

    ratios = [float(np.exp(lz(m + n) - lz(m) - lz(n))) for m, n in pairs]
    ok = all(lo <= q <= hi for q in ratios)
    return {"ratios": ratios, "pairs": list(pairs), "ok": ok}


def check_uniformity(sysm, phi, base_points, *, window=(6, 12), r=0.05,
                     leaf_radius=0.1, tol=0.02):
    """Slope of log Z_n per base point; the spread should be tiny."""
    ns = np.arange(window[0], window[1] + 1, dtype=float)
    slopes = []
    for x in np.atleast_2d(np.asarray(base_points, dtype=float)):
        lzs = [log_partition_sum(sysm, phi, x, int(n), r, leaf_radius)[0]
               for n in ns]
        slopes.append(float(np.polyfit(ns, np.array(lzs), 1)[0]))
    slopes = np.array(slopes)
    spread = float(slopes.max() - slopes.min())
    return {"slopes": slopes, "spread": spread, "ok": spread <= tol}
