"""Bowen balls and separated nets along unstable leaves.

The order-n dynamical metric d_n compares orbit segments of length n.  On
a straight expanding leaf with per-step stretch factor lam the trace of
the d_n-ball of radius r is an interval of parameter half-width
r * lam^-(n-1), so nets and balls have closed forms.
"""

from __future__ import annotations

import numpy as np

# Most atoms of one net or cover that a non-constant potential is summed
# over; each one costs an order-n Birkhoff sum.
MAX_CENTERS = 2 ** 22
MAX_POINT_STEPS = 2 ** 28  # point-steps of one probe: ~2-4 s at 8-15 ns each, 2-core Xeon


def check_atom_limit(phi, sizes, kind="net"):
    """Raise ArithmeticError, naming the first entry of sizes over its limit: MAX_CENTERS
    for a net ("net") or cover ("cover") {order: atoms} of a phi not constant, and with phi
    None, {parameters as text: work} of a probe ("probe", MAX_POINT_STEPS) or a window."""
    limit = MAX_POINT_STEPS if kind == "probe" else MAX_CENTERS
    over = [n for n, k in sizes.items() if k > limit]
    if over and (phi is None or phi.constant_value is None):
        n, unit = over[0], {"net": "atoms", "cover": "centers", "probe": "point-steps"}
        what = n if isinstance(n, str) else f"order {n}"
        raise ArithmeticError(f"{kind} of {what} needs {sizes[n]} "
                              f"{unit.get(kind, 'deck translations')} (limit {limit})")


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


def separated_net(sysm, n, r, leaf_radius=0.5):
    """Parameters, ascending, of the maximal (n, r)-separated net on [-leaf_radius, leaf_radius].

    On straight leaves a greedy sweep from the lowest parameter keeps an
    arithmetic progression with spacing ball_width(sysm, n, r), so
    consecutive atoms are exactly d_n-distance r apart; it is built
    directly.  Maximality makes the same net an (n, r)-spanning set,
    which is what partition sums of both kinds evaluate on.  The net is
    the same on every leaf: its atoms on the leaf through x are
    leaf_point(sysm, x, params).
    """
    params = np.arange(net_size(sysm, n, r, leaf_radius), dtype=float)
    params *= ball_width(sysm, n, r)
    return np.subtract(params, leaf_radius, out=params)
