"""Bowen balls and separated nets along unstable leaves.

The order-n dynamical metric d_n compares orbit segments of length n.  On
a straight expanding leaf with per-step stretch factor lam the trace of
the d_n-ball of radius r is an interval of parameter half-width
r * lam^-(n-1), so nets and balls have closed forms.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import leaf_point

# Most atoms of one net or cover that a non-constant potential is summed
# over; each one costs an order-n Birkhoff sum.
MAX_CENTERS = 2 ** 22


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


def ball_width(sysm, n, r):
    """Leaf half-width r * leaf_rate^-(n-1) of the d_n ball of radius r."""
    return r * sysm.leaf_rate ** (-(n - 1))


def net_size(sysm, n, r, leaf_radius):
    """Atom count of the maximal (n, r)-separated net on [-leaf_radius, leaf_radius]."""
    if n < 1:
        raise ValueError("net order must be >= 1")
    if leaf_radius <= 0 or r <= 0:
        raise ValueError("net radius arguments must be positive")
    return int(np.floor(2 * leaf_radius / ball_width(sysm, n, r))) + 1


def separated_net(sysm, x, n, r, leaf_radius=0.5):
    """Maximal (n, r)-separated net on [-leaf_radius, leaf_radius].

    On straight leaves a greedy sweep from the lowest parameter keeps an
    arithmetic progression with spacing ball_width(sysm, n, r), which is
    emitted directly.
    """
    count = net_size(sysm, n, r, leaf_radius)
    spacing = ball_width(sysm, n, r)
    params = -leaf_radius + spacing * np.arange(count)
    return SeparatedNet(sys=sysm, base=np.asarray(x, dtype=float), order=n, radius=r,
                        leaf_radius=leaf_radius, params=params, spacing=float(spacing))
