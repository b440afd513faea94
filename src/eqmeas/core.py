"""Torus geometry, dynamical systems as data, orbits, and leaf charts.

Points on the d-torus are numpy arrays of shape (..., d) with coordinates
taken mod 1.  All distances are flat-torus distances.  A system is a
SystemSpec: a hyperbolic toral automorphism on the first two coordinates
times a fiber map on the rest, an orthonormal frame whose first row spans
the unstable direction, and the constants of the hyperbolic splitting,
including the exact stretch factor of its straight unstable leaves.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np


def mod1(x):
    """Reduce coordinates mod 1, componentwise, as x - floor(x).

    Bitwise equal to numpy's x % 1.0 for finite x, at a tenth of its cost.
    Values lie in [0, 1]: 1.0 appears only for inputs at most 2**-54 (half
    an ulp of 1) below an integer, so mod1(-1e-20) == 1.0.
    """
    x = np.asarray(x, dtype=float)
    f = np.floor(x)  # the one buffer allocated, as with %
    return np.subtract(x, f, out=f) if f.ndim else x - f


def wrap(delta):
    """Shortest representative of a displacement, componentwise in [-1/2, 1/2)."""
    return mod1(np.asarray(delta, dtype=float) + 0.5) - 0.5


def torus_dist(x, y):
    """Flat-torus distance ||x - y||, vectorized over leading axes: bit for bit
    np.linalg.norm(..., axis=-1), without its extra temporary."""
    d = wrap(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.sqrt(np.add.reduce(d * d, axis=-1))


@dataclasses.dataclass(eq=False)
class SystemSpec:
    """A concrete system with a one-dimensional unstable direction.

    The map is (b, y) -> (matrix @ b mod 1, fiber(y)): matrix is a 2x2
    integer matrix acting on the base coordinates b = x[..., :2], and fiber
    is None when dim == 2, else a (forward, backward) pair of mutually
    inverse maps from (..., dim - 2) fiber arrays to reduced coordinates;
    the fiber map ignores the base.  step_fwd and step_back apply the map
    and its inverse to arrays of shape (..., dim).  frame is a (dim, dim)
    matrix of unit rows; row 0 spans E^u and lies in the base plane, the
    remaining rows span E^cs, so local leaves are straight segments
    x + t*frame[0] (unstable) and x + s @ frame[1:] (centre-stable) in
    these coordinates, and an unstable leaf keeps the fiber point of x.
    The rows need not be orthogonal; coordinates are read off with the
    dual basis.

    leaf_rate is the exact per-step stretch factor of unstable leaf
    parameters (so also the unstable Jacobian), which gives Bowen balls,
    nets and covers their closed forms; nu is the growth upper bound on
    E^cs (nu < leaf_rate), and r0 the centre-stable distance within which
    the holonomy between two unstable leaves is defined.
    """

    label: str
    dim: int
    matrix: np.ndarray
    fiber: tuple | None
    frame: np.ndarray
    leaf_rate: float
    nu: float
    r0: float
    satisfies_c1: bool = True
    transitive: bool = True

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.matrix.shape != (2, 2):
            raise ValueError(f"matrix must be (2, 2), got {self.matrix.shape}")
        inv = np.linalg.inv(self.matrix)
        self.inverse = np.rint(inv)
        if not np.allclose(inv, self.inverse, atol=1e-9):
            raise ValueError("matrix is not invertible over the integers")
        # contiguous transposes for the step products: by the view matrix.T
        # numpy takes slower loops, and maps a single (1-d) point with a
        # kernel that can round unlike the same point in a batch
        self._transposed = (self.matrix.T.copy(), self.inverse.T.copy())
        if (self.fiber is None) != (self.dim == 2):
            raise ValueError(f"fiber must be None exactly when dim == 2, got dim {self.dim}")
        self.frame = np.asarray(self.frame, dtype=float)
        if self.frame.shape != (self.dim, self.dim):
            raise ValueError(f"frame must be ({self.dim}, {self.dim}), got {self.frame.shape}")
        if np.any(self.frame[0, 2:] != 0.0):
            raise ValueError("frame[0] (the unstable direction) must lie in the base plane")
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

    # -- the map ------------------------------------------------------------

    def step_fwd(self, pts):
        """One forward step of points of shape (..., dim)."""
        return self._step(pts, 0)

    def step_back(self, pts):
        """One backward step of points of shape (..., dim)."""
        return self._step(pts, 1)

    def _step(self, pts, direction):
        pts = np.asarray(pts, dtype=float)
        base = mod1(pts[..., :2] @ self._transposed[direction])
        if self.fiber is None:
            return base
        return np.concatenate((base, self.fiber[direction](pts[..., 2:])), axis=-1)

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
    c = phi.constant_value
    if c is not None:
        shape = np.shape(x)[:-1]
        return float(n) * c if shape == () else np.full(shape, float(n) * c)
    x = mod1(x)
    total = np.asarray(phi(x), dtype=float).copy()
    for _ in range(n - 1):
        x = sys.step_fwd(x)
        total += phi(x)
    return total


def leaf_birkhoff_sum(sys, phi, x, t, n):
    """S_n phi at the leaf points leaf_point(sys, x, t), for a 1-d array t.

    The same numbers as birkhoff_sum on those points, bit for bit.  The
    unstable direction lies in the base plane, so the points share one
    fiber point, which is mapped once per step, as the fiber map ignores
    the base.
    """
    if n < 1:
        raise ValueError("birkhoff order must be >= 1")
    pts = mod1(leaf_point(sys, x, t))  # reduced twice, as birkhoff_sum does
    total = np.asarray(phi(pts), dtype=float).copy()
    base, fib = pts[:, :2], pts[0, 2:]
    for _ in range(n - 1):
        base = mod1(base @ sys._transposed[0])
        if sys.fiber is not None:
            fib = sys.fiber[0](fib)
        pts = base if sys.fiber is None else np.column_stack(
            (base, np.broadcast_to(fib, (len(base), len(fib)))))
        total += phi(pts)
    return total


def leaf_point(sys, x, t):
    """Shorthand for the unstable chart: the leaf point at parameter t."""
    return sys.unstable_chart(x, t)


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
