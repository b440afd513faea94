"""Topological pressure from leafwise partition sums.

The partition sum at order n collects e^{S_n(phi)} over a maximal
r-separated set (in the d_n metric) on the unstable leaf through a base
point.  Its log grows linearly in n with slope equal to the pressure of
phi, so we fit that slope over a window of orders and several radii.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .bowen import ball_width, check_atom_limit, net_size
from .core import leaf_birkhoff_sum, mod1


def _logsumexp(vals):
    m = vals.max()
    if not np.isfinite(m):
        return m
    shifted = vals - m
    return m + np.log(np.exp(shifted, out=shifted).sum())


def _leaf_log_sum(phi, n, count, sums, stride=1):
    """log of the sum of e^{S_n phi} over count points of one leaf.

    A constant phi = c takes the closed form log(count) + n c.  Otherwise
    the points' S_n phi values are sums()[::stride], and only then is sums
    called.
    """
    c = phi.constant_value
    if c is not None:
        return np.log(count) + n * c
    return float(_logsumexp(sums()[::stride]))


def _net_sums(sysm, phi, x, n, r, leaf_radius):
    """S_n phi at the atoms of the (n, r)-separated net on x's leaf."""
    return leaf_birkhoff_sum(sysm, phi, x, -leaf_radius, ball_width(sysm, n, r),
                             net_size(sysm, n, r, leaf_radius), n)


def log_partition_sum(sysm, phi, x, n, r):
    """log of the order-n partition sum on [-0.1, 0.1] of the unstable leaf of x.

    Returns (log_z, atom_count).  Constant potentials build no net.
    """
    count = net_size(sysm, n, r, 0.1)
    sums = functools.partial(_net_sums, sysm, phi, x, n, r, 0.1)
    return _leaf_log_sum(phi, n, count, sums), count


@dataclass(frozen=True)
class PressureEstimate:
    value: float
    per_radius: dict
    spread: float
    table: list = field(repr=False, default_factory=list)


def _default_point(sysm):
    return mod1(0.2 + 0.31 * np.arange(sysm.dim))


def estimate_pressure(sysm, phi, x=None, *, window=(6, 12),
                      radii=(0.1, 0.05, 0.025), leaf_radius=0.1):
    """Least-squares slope of log Z_n over a window of orders.

    One slope per separation radius; the estimate is their mean and the
    spread (max minus min) is the stability diagnostic.  Each radius must
    be the finest one times a power of two 2^j: its net is then every
    2^j-th atom of the finest net, bit for bit, so one net and one set of
    orbit sums per order serve all radii.  table rows are
    (n, r, count, log_z), radius by radius.  A non-constant potential
    raises ArithmeticError (bowen.check_atom_limit), before any net is
    built, when the finest net of some order holds more than MAX_CENTERS atoms.
    """
    if x is None:
        x = _default_point(sysm)
    x = np.asarray(x, dtype=float)
    r_min = min(radii)
    strides = [int(r / r_min) if r_min > 0 else 0 for r in radii]
    if any(s < 1 or s & (s - 1) or r_min * s != r for s, r in zip(strides, radii)):
        raise ValueError(f"radii must be a positive radius times powers of two, got {radii}")
    ns = range(window[0], window[1] + 1)
    check_atom_limit(phi, {n: net_size(sysm, n, r_min, leaf_radius) for n in ns})
    logs = {}
    for n in ns:
        fine = functools.cache(functools.partial(_net_sums, sysm, phi, x, n, r_min,
                                                 leaf_radius))
        for r, s in zip(radii, strides):
            count = net_size(sysm, n, r, leaf_radius)
            logs[r, n] = (n, r, count, _leaf_log_sum(phi, n, count, fine, s))
    per_radius = {r: float(np.polyfit(ns, [logs[r, n][3] for n in ns], 1)[0])
                  for r in radii}
    slopes = np.array(list(per_radius.values()))
    return PressureEstimate(value=float(slopes.mean()),
                            per_radius=per_radius,
                            spread=float(slopes.max() - slopes.min()),
                            table=[logs[r, n] for r in radii for n in ns])


def check_submultiplicativity(sysm, phi):
    """Ratios Z_{m+n} / (Z_m Z_n) at r = 0.05 on the default point's leaf;
    ok when all lie in [1/4, 4]."""
    x = _default_point(sysm)
    lz = functools.cache(lambda n: log_partition_sum(sysm, phi, x, n, 0.05)[0])
    pairs = ((3, 4), (4, 5), (5, 6), (4, 4))
    ratios = [float(np.exp(lz(m + n) - lz(m) - lz(n))) for m, n in pairs]
    return {"ratios": ratios, "ok": all(0.25 <= q <= 4.0 for q in ratios)}
