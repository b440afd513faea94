"""Torus geometry, dynamical systems as data, orbits, and leaf charts.

Points on the d-torus are numpy arrays of shape (..., d) with coordinates
taken mod 1.  All distances are flat-torus distances.  A system is a
SystemSpec: a pair of step maps (forward and backward), an orthonormal
frame whose first row spans the unstable direction, and the constants of
the hyperbolic splitting, including the exact stretch factor of its
straight unstable leaves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

# Residual tolerance for chart round-trips and bracket consistency checks.
CHART_TOL = 1e-8


def mod1(x):
    """Reduce coordinates to the fundamental domain [0, 1)^d."""
    return np.asarray(x, dtype=float) % 1.0


def wrap(delta):
    """Shortest representative of a displacement, componentwise in [-1/2, 1/2)."""
    return (np.asarray(delta, dtype=float) + 0.5) % 1.0 - 0.5


def torus_dist(x, y):
    """Flat-torus distance ||x - y||, vectorized over leading axes."""
    return np.linalg.norm(wrap(np.asarray(x, dtype=float) - np.asarray(y, dtype=float)), axis=-1)


@dataclasses.dataclass(eq=False)
class SystemSpec:
    """A concrete system with a one-dimensional unstable direction.

    step_fwd and step_back act on arrays of shape (..., dim) and must be
    exact inverses up to numerical error.  frame is a (dim, dim) matrix of
    unit rows; row 0 spans E^u and the remaining rows span E^cs, so local
    leaves are straight segments x + t*frame[0] (unstable) and
    x + s @ frame[1:] (centre-stable) in these coordinates.  The rows need
    not be orthogonal; coordinates are read off with the dual basis.

    leaf_rate is the exact per-step stretch factor of unstable leaf
    parameters (so also the unstable Jacobian), which gives Bowen balls,
    nets and covers their closed forms; nu is the growth upper bound on
    E^cs (nu < leaf_rate), r0 the bracket radius and tau the chart radius.
    """

    label: str
    dim: int
    step_fwd: Callable
    step_back: Callable
    frame: np.ndarray
    leaf_rate: float
    nu: float
    r0: float
    tau: float
    satisfies_c1: bool = True
    transitive: bool = True

    def __post_init__(self):
        self.frame = np.asarray(self.frame, dtype=float)
        if self.frame.shape != (self.dim, self.dim):
            raise ValueError(f"frame must be ({self.dim}, {self.dim}), got {self.frame.shape}")
        norms = np.linalg.norm(self.frame, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-10):
            raise ValueError("frame rows must have unit length")
        det = np.linalg.det(self.frame)
        if abs(det) < 1e-8:
            raise ValueError("frame rows are (numerically) linearly dependent")
        # dual basis: coframe[i] . frame[j] = delta_ij
        self.coframe = np.linalg.inv(self.frame)
        if not (0.0 < self.nu < self.leaf_rate):
            raise ValueError("need 0 < nu < leaf_rate for a dominated splitting")

    # -- leaf charts ------------------------------------------------------

    def unstable_chart(self, x, t):
        """Point(s) x + t * e_u on the local unstable leaf through x.

        t may be a scalar or an array; broadcasting follows numpy rules
        with t contributing leading axes.
        """
        t = np.asarray(t, dtype=float)
        return mod1(np.asarray(x, dtype=float) + t[..., None] * self.frame[0])

    def cs_chart(self, x, s):
        """Point(s) x + s @ cs-frame on the local centre-stable leaf through x."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        return mod1(np.asarray(x, dtype=float) + s @ self.frame[1:])

    def split(self, delta):
        """Frame coordinates (u, cs) of a wrapped displacement.

        Returns (u, cs) with u of shape delta.shape[:-1] and cs of shape
        delta.shape[:-1] + (dim-1,), satisfying
        wrap(delta) == u * frame[0] + cs @ frame[1:].
        """
        coords = wrap(delta) @ self.coframe
        return coords[..., 0], coords[..., 1:]


# -- orbits and orbit sums ------------------------------------------------


def iterate(sys, x, k):
    """Apply the step map k times (backward steps when k < 0)."""
    x = mod1(x)
    step = sys.step_fwd if k >= 0 else sys.step_back
    for _ in range(abs(int(k))):
        x = step(x)
    return x


def orbit(sys, x, n):
    """Stack the forward orbit segment [x, f(x), ..., f^(n-1)(x)].

    Output shape is (n,) + x.shape.
    """
    if n < 1:
        raise ValueError("orbit length must be >= 1")
    out = np.empty((n,) + np.shape(mod1(x)), dtype=float)
    out[0] = mod1(x)
    for k in range(1, n):
        out[k] = sys.step_fwd(out[k - 1])
    return out


def dyn_metric(sys, x, y, n):
    """d_n(x, y) = max of torus_dist(f^k x, f^k y) over 0 <= k < n."""
    if n < 1:
        raise ValueError("dyn_metric order must be >= 1")
    x, y = mod1(x), mod1(y)
    best = torus_dist(x, y)
    for _ in range(n - 1):
        x, y = sys.step_fwd(x), sys.step_fwd(y)
        best = np.maximum(best, torus_dist(x, y))
    return best


def birkhoff_sum(sys, phi, x, n):
    """S_n phi(x) = sum of phi along the first n orbit points."""
    if n < 1:
        raise ValueError("birkhoff order must be >= 1")
    c = getattr(phi, "constant_value", None)
    if c is not None:
        shape = np.shape(x)[:-1]
        return float(n) * c if shape == () else np.full(shape, float(n) * c)
    x = mod1(x)
    total = np.asarray(phi(x), dtype=float).copy()
    for _ in range(n - 1):
        x = sys.step_fwd(x)
        total += phi(x)
    return total


def leaf_point(sys, x, t):
    """Shorthand for the unstable chart: the leaf point at parameter t."""
    return sys.unstable_chart(x, t)


# -- the bracket ----------------------------------------------------------


def bracket(sys, x, y, check=True):
    """Local product bracket [x, y]: the point of V^u_loc(x) on V^cs_loc(y).

    Splits the wrapped displacement y - x in the frame and keeps only the
    unstable component.  Raises ValueError when the two points are r0 or
    further apart, where the bracket is not defined.
    """
    x, y = mod1(x), mod1(y)
    d0 = torus_dist(x, y)
    if np.any(d0 >= sys.r0):
        raise ValueError(f"bracket undefined at distance {np.max(d0):.4g} >= r0 = {sys.r0}")
    u, cs = sys.split(np.asarray(y) - x)
    z = sys.unstable_chart(x, u)
    if check:
        # z must equal y displaced back along the centre-stable frame
        back = mod1(np.asarray(y) - cs @ sys.frame[1:])
        resid = np.max(torus_dist(z, back))
        if resid > CHART_TOL:
            raise ValueError(f"bracket residual {resid:.3g} exceeds {CHART_TOL}; frame is inconsistent")
    return z


# -- potentials -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Potential:
    """A continuous function on phase space with an optional constant tag.

    fn maps (..., dim) arrays to (...) arrays.  constant_value, when not
    None, certifies phi == constant_value everywhere and lets orbit sums
    and partition sums take the closed form.
    """

    fn: Callable
    label: str = "phi"
    constant_value: float | None = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))


def zero_potential():
    return Potential(fn=lambda x: np.zeros(x.shape[:-1]), label="0", constant_value=0.0)


def constant_potential(c):
    c = float(c)
    return Potential(fn=lambda x: np.full(x.shape[:-1], c), label=f"{c:g}", constant_value=c)


def shifted_potential(phi, c):
    """phi + c, preserving the constant tag when there is one."""
    c = float(c)
    base = phi.constant_value
    return Potential(
        fn=lambda x: phi(x) + c,
        label=f"{phi.label}+{c:g}",
        constant_value=None if base is None else base + c,
    )


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
            w = r * sys.leaf_rate ** (-(n - 1))
            s0 = birkhoff_sum(sys, phi, x, n)
            for t in (-w, w):
                q_u = max(q_u, abs(birkhoff_sum(sys, phi, sys.unstable_chart(x, t), n) - s0))
            for sgn in (-1.0, 1.0):
                s = np.full(sys.dim - 1, sgn * r / np.sqrt(sys.dim - 1))
                q_cs = max(q_cs, abs(birkhoff_sum(sys, phi, sys.cs_chart(x, s), n) - s0))
    return q_u, q_cs
