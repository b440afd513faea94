"""Bowen balls and separated nets along unstable leaves.

The order-n dynamical metric d_n compares orbit segments of length n.  On
a straight expanding leaf with per-step stretch factor lam the trace of
the d_n-ball of radius r is an interval of parameter half-width
r * lam^-(n-1), so nets and balls have closed forms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import dyn_metric, leaf_point


@dataclasses.dataclass(eq=False)
class UBowenBall:
    """Trace of a d_n ball on an unstable leaf, as a parameter interval."""

    sys: object
    center: np.ndarray
    order: int
    radius: float
    width: float  # half-width in leaf parameter

    def endpoints(self):
        return leaf_point(self.sys, self.center, np.array([-self.width, self.width]))

    def contains_param(self, t):
        return np.abs(np.asarray(t, dtype=float)) <= self.width


@dataclasses.dataclass(eq=False)
class SeparatedNet:
    """Maximal (n, r)-separated parameters on a leaf segment.

    params are sorted ascending, spaced so that consecutive atoms are
    exactly d_n-distance r apart on linear leaves.  Maximality makes the
    same net an (n, r)-spanning set, which is what partition sums of both
    kinds evaluate on.
    """

    sys: object
    base: np.ndarray
    order: int
    radius: float
    leaf_radius: float
    params: np.ndarray
    spacing: float

    def __len__(self):
        return len(self.params)

    def points(self):
        return leaf_point(self.sys, self.base, self.params)


def u_bowen_ball(sysm, x, n, r):
    """B_n^u(x, r): the set of leaf parameters t with d_n(x, x + t e_u) < r.

    The width is the exact straight-leaf half-width r * leaf_rate^-(n-1),
    capped at the chart radius tau.
    """
    if n < 1:
        raise ValueError("ball order must be >= 1")
    if not 0 < r:
        raise ValueError("ball radius must be positive")
    x = np.asarray(x, dtype=float)
    width = min(r * sysm.leaf_rate ** (-(n - 1)), sysm.tau)
    return UBowenBall(sys=sysm, center=x, order=n, radius=r, width=width)


def separated_net(sysm, x, n, r, leaf_radius=0.5):
    """Maximal (n, r)-separated net on [-leaf_radius, leaf_radius].

    On straight leaves a greedy sweep from the lowest parameter keeps an
    arithmetic progression with spacing r * lam^-(n-1), which is emitted
    directly.
    """
    if n < 1:
        raise ValueError("net order must be >= 1")
    if leaf_radius <= 0 or r <= 0:
        raise ValueError("net radius arguments must be positive")
    x = np.asarray(x, dtype=float)
    spacing = r * sysm.leaf_rate ** (-(n - 1))
    k = int(np.floor(2 * leaf_radius / spacing))
    params = -leaf_radius + spacing * np.arange(k + 1)
    return SeparatedNet(sys=sysm, base=x, order=n, radius=r,
                        leaf_radius=leaf_radius, params=params, spacing=float(spacing))


def check_separation(net, sample=64):
    """Smallest adjacent-pair d_n of a net (monotone leaves make adjacent
    pairs the extreme case).  Subsamples long nets."""
    p = net.params
    if len(p) < 2:
        return np.inf
    idx = np.arange(len(p) - 1)
    if len(idx) > sample:
        idx = idx[np.linspace(0, len(idx) - 1, sample).astype(int)]
    a = leaf_point(net.sys, net.base, p[idx])
    b = leaf_point(net.sys, net.base, p[idx + 1])
    return float(np.min(dyn_metric(net.sys, a, b, net.order)))


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
        a = leaf_point(net.sys, net.base, np.full(len(cand), t))
        b = leaf_point(net.sys, net.base, cand)
        worst = max(worst, float(np.min(dyn_metric(net.sys, a, b, net.order))))
    return worst <= r + 1e-12, worst
