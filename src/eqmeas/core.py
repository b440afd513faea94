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
import functools

import numpy as np

# Points per block wherever many are followed (evolve's atoms, the probe's
# phases): bounds their 64-bit phase arrays and the temporaries made from
# them, whatever the net or sample count.
BLOCK = 2 ** 14
ROW = 2 ** 7  # atoms per row in a leaf sum's angle addition
TILE = 2 ** 4  # rows per matrix product in a leaf sum
_CELL = 2 * np.pi / 4096  # the angle of a cell of the probe's cosine table


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
    orthogonal; coordinates are read off with the dual basis coframe.  A step
    multiplies unstable leaf parameters by eigenvalue = lambda_u (signed) and
    lengths by leaf_rate = |lambda_u|, the unstable Jacobian, which gives
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
        self.eigenvalue = float(vals[order[0]])
        self.leaf_rate = abs(self.eigenvalue)
        # dual basis: coframe[i] . frame[j] = delta_ij
        self.coframe = np.linalg.inv(self.frame)

    # -- the map ------------------------------------------------------------

    def step_fwd(self, pts):
        """One forward step of points of shape (..., dim)."""
        return self._step(pts, 0)

    def step_back(self, pts):
        """One backward step of points of shape (..., dim)."""
        return self._step(pts, 1)

    def _step(self, pts, direction):  # the package's one float base map, reduced as by mod1
        pts = np.asarray(pts, dtype=float)
        s = np.matmul(pts[..., :2], self._bases[direction])
        base = np.subtract(s, np.floor(s), out=s)
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


def leaf_birkhoff_sum(sys, phi, x, start, spacing, count, n):
    """S_n phi at leaf_point(sys, x, start + i * spacing), i < count, in closed form.

    Step k maps the leaf point at t to A^k x + t A^k e_u on the base and keeps
    x's fiber orbit, mapped once per step.  So S_n phi is n * const, the fiber
    modes on that orbit, and a cos 2 pi kappa (c_k + t v_k) for each base mode
    (a, j, kappa) (axes read mod dim) and k < n, with c_k = (A^k x)_j and v_k =
    (A^k e_u)_j: the net's 64-bit phases (_net_phases) times the power table,
    exact mod 1, plus their remainders below 2^-64 in float.  Atom i = r ROW +
    m takes its cosine from those at r ROW and at m by angle addition: TILE
    rows' cos and sin times the offsets' a cos and -a sin, one matrix product
    of the fixed shape (TILE, 2K) @ (2K, ROW) for K terms (rows zero-padded to
    whole tiles, offsets zero from count on), so its value depends on neither
    count nor BLAS threads.
    """
    if n < 1:
        raise ValueError("birkhoff order must be >= 1")
    x = np.asarray(x, dtype=float)
    modes = [(a, axis % sys.dim, int(kappa)) for a, axis, kappa in phi.modes]
    shift = n * phi.const
    for k in range(n if any(j > 1 for _, j, _ in modes) else 0):
        fib = sys.fiber[0](fib) if k else mod1(mod1(x[2:]))
        shift += sum(a * np.cos(2 * np.pi * kappa * fib[j - 2]) for a, j, kappa in modes if j > 1)
    if not (base := [mode for mode in modes if mode[1] < 2]):
        return np.full(count, float(shift))
    amp, j, kappa = ([mode[c] for mode in base] for c in range(3))
    words, rems = _net_phases(sys, x, start, spacing)
    kappa = np.array([k % 2 ** 64 for k in kappa], dtype=np.uint64)[:, None]
    row = _powers(sys, n)[:n, j] * kappa  # kappa times row j of A^k, k < n, mod 2^64
    # the (start, step) phases of axis j a step and mode: words mod 2^64, and remainders
    # by the signed rows, exact while |kappa A^k| < 2^63, long after e_u's rounding shows
    z = np.matmul(row, words).reshape(-1, 2)
    rem = np.matmul(row.view(np.int64), rems).reshape(-1, 2)
    width, rows = min(ROW, count), -(-count // ROW)  # offsets m < width, then row heads
    i = np.concatenate((np.arange(width), np.arange(0, count, ROW)))
    zi = z[:, 1:] * i.astype(np.uint64)
    zi[:, :width] += z[:, :1]  # the offsets from the start
    ang = rem[:, 1:] * i
    ang[:, :width] += rem[:, :1]
    ang += zi
    ang *= 2 * np.pi / 2 ** 64
    trig = np.array((np.cos(ang), np.sin(ang)))
    coef = np.array([amp * n, [-a for a in amp] * n])[:, :, None]
    off = np.zeros((2 * len(z), ROW))  # a cos, -a sin at the offsets; zero past the width
    np.multiply(trig[:, :, :width], coef, out=off.reshape(2, -1, ROW)[:, :, :width])
    heads = np.zeros((-(-rows // TILE) * TILE, len(off)))  # cos, sin at the rows; zero-padded
    heads[:rows] = trig[:, :, width:].reshape(len(off), rows).T
    total = np.empty((len(heads), ROW))
    for r in range(0, len(heads), TILE):  # every product is (TILE, 2K) @ (2K, ROW)
        np.matmul(heads[r:r + TILE], off, out=total[r:r + TILE])
    total = total.ravel()[:count]
    return np.add(total, shift, out=total)


# -- the exact base engine: 64-bit phases -----------------------------------


def _phases(b):
    """uint64 phases floor(b 2^64) of coordinates b in [0, 1]; 1.0 (from mod1) is 0."""
    return np.where(b < 1.0, b * 2.0 ** 64, 0.0).astype(np.uint64)


def _net_phases(sys, x, start, spacing):
    """A leaf net x + (start + i spacing) e_u on the base: per base axis j, the words
    (floor(2^64 (x_j + start e_j)), floor(2^64 spacing e_j)) mod 2^64 of the floats'
    exact values, and what each floor drops, in units of 2^-64, as floats in [0, 1)."""
    (s, qs), (w, qw) = float(start).as_integer_ratio(), float(spacing).as_integer_ratio()
    words, rems = [], []
    for xj, ej in zip(x[:2].tolist(), sys.frame[0, :2].tolist()):
        (p, q), (e, r) = xj.as_integer_ratio(), ej.as_integer_ratio()
        d = max(q, r * qs)  # powers of two: their lcm
        for num, den in ((p * (d // q) + e * s * (d // (r * qs)), d), (e * w, r * qw)):
            whole, part = divmod(num << 64, den)
            words.append(whole & (2 ** 64 - 1))
            rems.append(part / den)
    return np.array(words, dtype=np.uint64).reshape(2, 2), np.array(rems).reshape(2, 2)


def _powers(sys, m):
    """power[k] = A^k mod 2^64 (uint64), k <= m: the head of the matrix's table,
    whose length is the next power of two above m (at least 64)."""
    return _power_table(sys.matrix.tobytes(), 2 ** max(6, m.bit_length()))[:m + 1]


@functools.lru_cache(maxsize=4)
def _power_table(matrix, size):
    """_powers up to size, from the bytes of float A."""
    power = np.empty((size + 1, 2, 2), dtype=np.uint64)
    power[0], power[1] = np.eye(2), np.frombuffer(matrix).reshape(2, 2).astype(np.int64)
    for k in range(1, size):
        np.matmul(power[k], power[1], out=power[k + 1])
    power.flags.writeable = False  # one table serves every call with these arguments
    return power


@functools.cache
def _cells():
    """cos and sin at the centres (h + 1/2) _CELL of the cells h < 4096."""
    t = (np.pi / 4096) * (2 * np.arange(512) + 1)  # the first octant, where angles round least
    c = np.concatenate((np.cos(t), np.sin(t)[::-1]))  # a quadrant: cos(pi/2 - t) = sin t
    s = c[::-1]
    return np.concatenate((c, -s, -c, s)), np.concatenate((s, c, -s, -c))  # quarter turns


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
    sums their closed form.  Frequencies are integers (else ValueError), and
    no zero const is added, which keeps the sign of a -0.0 value.
    """

    const: float = 0.0
    modes: tuple = ()

    def __post_init__(self):
        if any(k != int(k) for _, _, k in self.modes):
            raise ValueError(f"mode frequencies must be integers, got {self.modes}")

    @property
    def constant_value(self):
        return None if self.modes else self.const

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        terms = [np.full(x.shape[:-1], self.const)] if self.const or not self.modes else []
        terms += [a * np.cos(2 * np.pi * k * x[..., axis]) for a, axis, k in self.modes]
        return sum(terms[1:], terms[0])


def constant_potential(c):
    return Potential(float(c))


def zero_potential():
    return constant_potential(0.0)
