"""Torus geometry, dynamical systems as data, orbits, and leaf charts.

Points on the d-torus are numpy arrays of shape (..., d) with coordinates
taken mod 1.  All distances are flat-torus distances.  A system is a
SystemSpec: a hyperbolic toral automorphism on the first two coordinates
times a fiber map on the rest, from whose matrix it derives a frame whose
first row spans the unstable direction and the exact stretch factor of
its straight unstable leaves.
"""

from __future__ import annotations

import dataclasses

import numpy as np

# Base points per block wherever many are stepped (the leaf sums, evolve's
# atoms, the probe's orbit points): bounds their (2, B) coordinates and the
# temporaries made from them, whatever the net, cover or sample count.
BLOCK = 2 ** 14


def mod1(x, out=None):
    """Reduce coordinates mod 1, componentwise, as x - floor(x), into out (not x) if given.

    Bitwise equal to numpy's x % 1.0 for finite x, at a tenth of its cost.
    Values lie in [0, 1]: 1.0 appears only for inputs at most 2**-54 (half
    an ulp of 1) below an integer, so mod1(-1e-20) == 1.0.
    """
    x = np.asarray(x, dtype=float)
    f = np.floor(x, out=out)  # the one buffer allocated, as with %
    return np.subtract(x, f, out=f) if f.ndim else x - f


def wrap(delta):
    """Shortest representative of a displacement, componentwise in [-1/2, 1/2)."""
    return mod1(np.asarray(delta, dtype=float) + 0.5) - 0.5


def torus_dist(x, y):
    """Flat-torus distance ||x - y||, vectorized over leading axes.  The
    squares are summed column by column from zero, which is faster than a
    reduce over the short last axis; below 8 coordinates (every system
    here) add.reduce adds in that order too, so the result is bit for bit
    np.linalg.norm(..., axis=-1)."""
    d = wrap(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))
    return np.sqrt(sum((d[..., j] * d[..., j] for j in range(d.shape[-1])),
                       np.zeros(d.shape[:-1])))


@dataclasses.dataclass(eq=False)
class SystemSpec:
    """A concrete system with a one-dimensional unstable direction.

    The map is (b, y) -> (matrix @ b mod 1, fiber(y)): matrix is a 2x2
    integer hyperbolic matrix of determinant +-1 acting on the base
    coordinates b = x[..., :2], and fiber is None when dim == 2, else a
    (forward, backward) pair of mutually inverse maps from (..., dim - 2)
    fiber arrays to reduced coordinates; the fiber map ignores the base.
    step_fwd and step_back apply the map and its inverse to arrays of
    shape (..., dim).

    The geometry is derived from the matrix.  frame is the (dim, dim)
    identity with its base block replaced by the unit eigenvectors e_u,
    e_s of the matrix (first nonzero component positive) as rows 0 and 1,
    so local leaves are straight segments x + t*frame[0] (unstable) and
    x + s @ frame[1:] (centre-stable) in these coordinates, and an
    unstable leaf keeps the fiber point of x.  The rows need not be
    orthogonal; coordinates are read off with the dual basis coframe.
    leaf_rate = |lambda_u| is the exact per-step stretch factor of
    unstable leaf parameters (so also the unstable Jacobian), which gives
    Bowen balls, nets and covers their closed forms.
    """

    label: str
    dim: int
    matrix: np.ndarray
    fiber: tuple | None
    satisfies_c1: bool = True
    transitive: bool = True

    def __post_init__(self):
        m = self.matrix = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValueError(f"matrix must be (2, 2), got {m.shape}")
        if not np.allclose(m, np.rint(m), atol=1e-12):
            raise ValueError("matrix must have integer entries")
        if abs(abs(np.linalg.det(m)) - 1.0) > 1e-12:
            raise ValueError("matrix is not invertible over the integers (|det| != 1)")
        self.inverse = np.rint(np.linalg.inv(m))
        # C-contiguous (matrix.T, inverse.T): by views numpy takes slower loops,
        # and maps a lone (1-d) point with a kernel that can round unlike a batch
        self._bases = np.ascontiguousarray(np.stack([m.T, self.inverse.T]))
        if (self.fiber is None) != (self.dim == 2):
            raise ValueError(f"fiber must be None exactly when dim == 2, got dim {self.dim}")
        vals, vecs = np.linalg.eig(m)
        if np.iscomplexobj(vals) and np.abs(vals.imag).max() > 1e-12:
            raise ValueError("matrix has non-real spectrum, not hyperbolic")
        vals, vecs = vals.real, vecs.real
        if np.any(np.abs(np.abs(vals) - 1.0) < 1e-9):
            raise ValueError("matrix has an eigenvalue on the unit circle")
        order = np.argsort(-np.abs(vals))
        self.frame = np.eye(self.dim)  # E^cs holds the fiber axes
        for row, k in enumerate(order):
            v = vecs[:, k] / np.linalg.norm(vecs[:, k])
            lead = v[np.nonzero(np.abs(v) > 1e-14)[0][0]]
            self.frame[row, :2] = v if lead > 0 else -v
        self.leaf_rate = float(abs(vals[order[0]]))
        # dual basis: coframe[i] . frame[j] = delta_ij
        self.coframe = np.linalg.inv(self.frame)

    # -- the map ------------------------------------------------------------

    def step_fwd(self, pts):
        """One forward step of points of shape (..., dim)."""
        return self._step(pts, 0)

    def step_back(self, pts):
        """One backward step of points of shape (..., dim)."""
        return self._step(pts, 1)

    def _step(self, pts, direction):
        pts = np.asarray(pts, dtype=float)
        base = self.step_base(pts[..., :2], direction=direction)
        if self.fiber is None:
            return base
        return np.concatenate((base, self.fiber[direction](pts[..., 2:])), axis=-1)

    def step_base(self, b, out=None, scratch=None, direction=0):
        """The package's one base map: (..., 2) base points b stepped forward
        (direction 0), backward (1) or, by slice(None), b[0] forward and b[1]
        backward, reduced as by mod1 into out (may be b) by way of scratch;
        each is allocated when not given.  Transposes of (2, B) arrays step
        faster than (B, 2) rows."""
        s = np.matmul(b, self._bases[direction], out=scratch)
        f = np.floor(s, out=out)  # mod1 written out: this runs once per probe step
        return np.subtract(s, f, out=f)

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
    fiber point, whose orbit is mapped once (the fiber map ignores the
    base), and not at all for a base-only potential, which is handed the
    base points alone.  The points are reduced twice, as birkhoff_sum
    reduces leaf_point's, and stepped BLOCK at a time as one (dim, B)
    array; a point's sum depends on that point alone, so the result does
    not depend on BLOCK.
    """
    if n < 1:
        raise ValueError("birkhoff order must be >= 1")
    fibs = []  # the shared fiber point after 0 .. n-1 steps, if phi reads it
    if not phi.base_only and sys.fiber is not None:
        fibs.append(mod1(mod1(x[2:])))
        for _ in range(n - 1):
            fibs.append(sys.fiber[0](fibs[-1]))
    size = min(BLOCK, len(t))
    rows, scratch = np.empty((sys.dim if fibs else 2, size)), np.empty((2, size))
    total = np.empty(len(t))
    for lo in range(0, len(t), BLOCK):
        out = total[lo:lo + BLOCK]
        pts, s = rows[:, :len(out)], scratch[:, :len(out)]
        b = mod1(leaf_base(sys, x, t[lo:lo + BLOCK], s, pts[:2]), pts[:2])
        for k in range(n):
            if k:
                sys.step_base(b.T, b.T, s.T)
            if fibs:
                pts[2:] = fibs[k][:, None]
            if k:
                out += phi(pts.T)
            else:
                out[:] = phi(pts.T)
    return total


def leaf_base(sys, x, t, out, scratch):
    """Base coordinates of leaf_point(sys, x, t) into (2, len(t)) out, by way of scratch."""
    np.multiply(sys.frame[0, :2, None], t, out=scratch)
    scratch += np.asarray(x, dtype=float)[:2, None]
    return mod1(scratch, out)


def leaf_point(sys, x, t):
    """Shorthand for the unstable chart: the leaf point at parameter t."""
    return sys.unstable_chart(x, t)


# -- potentials -----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Potential:
    """A potential as a table: phi(x) = const + sum of a * cos(2 pi k x[..., axis])
    over its modes (a, axis, k), for (..., dim) arrays x.

    Nothing is certified by hand: constant_value is const when there are no
    modes (a zero coefficient is still a mode) and gives orbit and partition
    sums their closed form; base_only holds when every mode reads axis 0 or
    1, so phi also takes (..., 2) arrays and leaf sums skip the fiber.  No
    zero const is added, which keeps the sign of a -0.0 value.
    """

    const: float = 0.0
    modes: tuple = ()

    @property
    def constant_value(self):
        return None if self.modes else self.const

    @property
    def base_only(self):
        return all(0 <= axis < 2 for _, axis, _ in self.modes)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        terms = [np.full(x.shape[:-1], self.const)] if self.const or not self.modes else []
        terms += [a * np.cos(2 * np.pi * k * x[..., axis]) for a, axis, k in self.modes]
        return sum(terms[1:], terms[0])


def constant_potential(c):
    return Potential(float(c))


def zero_potential():
    return constant_potential(0.0)
