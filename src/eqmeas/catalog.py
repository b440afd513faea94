"""Built-in model systems: a hyperbolic torus map, a rotation extension of it,
and a product whose second factor is the time-one map of a slowed linear flow.

All three share straight unstable leaves directed along the expanding
eigenvector of the base matrix, which is what makes closed-form Bowen
geometry available to the rest of the package.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .core import Potential, SystemSpec, constant_potential, mod1, wrap

CAT_MATRIX = np.array([[2, 1], [1, 1]], dtype=float)
GOLDEN_ROTATION = np.sqrt(2.0) - 1.0
CHORD_ROWS = 2 ** 9  # rows per chord quadrature: its (rows, 32) temporaries stay in cache


def make_toral_automorphism(matrix=None, *, label="toral"):
    """Hyperbolic automorphism of T^2 from an integer matrix.

    Defaults to [[2, 1], [1, 1]].  Raises ValueError when the matrix is
    not an integer unimodular hyperbolic matrix.
    """
    return SystemSpec(label, 2, CAT_MATRIX if matrix is None else matrix, None)


def as_rational(x):
    """Best rational approximation p/q with q <= 10^6, or None.

    Walks the continued-fraction convergents of x and returns the first
    one within 1e-12.  Used to reject resonant rotation numbers.
    """
    x = float(x)
    p0, q0 = 1, 0
    p1, q1 = int(np.floor(x)), 1
    frac = x - np.floor(x)
    while q1 <= 10**6:
        if abs(x - p1 / q1) < 1e-12:
            return p1, q1
        if frac == 0.0:
            return None
        r = 1.0 / frac
        a = int(np.floor(r))
        frac = r - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return None


def make_skew_product(rotation=GOLDEN_ROTATION, *, allow_resonant=False, label="skew"):
    """Circle extension (x, theta) -> (Mx, theta + rotation) over the cat map.

    The fiber rotation must be irrational for the product to be
    transitive; a rotation that is rational (or indistinguishable from a
    rational with denominator <= 10^6) raises ValueError unless
    allow_resonant is set, in which case the system is built with its
    transitive flag cleared.
    """
    rot = float(rotation)
    res = as_rational(rot)
    if res is not None and not allow_resonant:
        raise ValueError(
            f"rotation {rot!r} is rational ({res[0]}/{res[1]}) to within 1e-12; "
            "the skew product is not transitive (pass allow_resonant=True to "
            "build it anyway)")
    fiber = (lambda th: mod1(th + rot), lambda th: mod1(th - rot))
    return SystemSpec(label, 3, CAT_MATRIX, fiber, transitive=res is None)


# -- slowed linear flow on the fiber torus ---------------------------------


@dataclasses.dataclass(frozen=True)
class SlowFlowProfile:
    """Speed profile of a linear T^2 flow slowed to a halt at one point.

    The flow field is psi(y) * drift where psi = kappa(distance to center
    in straightened coordinates cx = d0 - d1*a/b, cy = d1/b), d being the
    wrapped offset from center and (a, b) = drift.  kappa(t) =
    (t/t0)^exponent below 0.9*t0, blends smoothly (C^2) to 1 on
    [0.9*t0, t0] and equals 1 outside, so 1/psi stays integrable and the
    slowed flow carries a finite invariant density.  flow_time_one needs
    one slow disk per unit arc, so a ValueError names the condition when
    drift[1] is 0, when the t0 disk crosses the wrap cell (psi would jump
    there), or when a unit arc can meet two copies of the disk.
    """

    t0: float = 0.1
    exponent: float = 0.5
    drift: tuple = (1.0, np.sqrt(2.0))
    center: tuple = (0.5, 0.5)

    def __post_init__(self):
        if not 0.0 < self.exponent < 1.0:
            raise ValueError("exponent must be in (0, 1) for an integrable slow-down")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")
        a, b = (float(v) for v in self.drift)
        if b == 0.0:
            raise ValueError("drift[1] must be nonzero: psi divides by it")
        # the disk t < t0 spans |d0| < t0*hypot(1, a) and |d1| < t0*|b|
        if self.t0 * max(np.hypot(1.0, a), abs(b)) >= 0.5:
            raise ValueError("the t0 disk crosses the wrap cell [-1/2, 1/2)^2")
        # copy (m, n) sits at (m - n*a/b, n/b) in (cx, cy); a unit arc meets it
        # and copy (0, 0) iff |dx| < 2*t0 and n/|b| < 1 + sqrt(4*t0^2 - dx^2)
        n = np.arange(1, int(abs(b) * (1 + 2 * self.t0)) + 1)
        dx = np.abs(wrap(n * a / b))
        reach = np.sqrt(np.clip(4 * self.t0 ** 2 - dx ** 2, 0.0, None))
        if np.any((dx < 2 * self.t0) & (n / abs(b) < 1 + reach)):
            raise ValueError("a unit arc of the drift meets two copies of the t0 disk")

    def kappa(self, t):
        """Scalar speed factor as a function of straightened distance."""
        t = np.asarray(t, dtype=float)
        base = np.where(t > 0, (np.maximum(t, 1e-300) / self.t0) ** self.exponent, 0.0)
        u = np.minimum(np.maximum((t - 0.9 * self.t0) / (0.1 * self.t0), 0.0), 1.0)
        s = u ** 3 * (10 + u * (6 * u - 15))
        return (1 - s) * base + s  # exactly 1.0 for t >= t0

    def psi(self, pts):
        """Speed field on the fiber torus, shape (..., 2) -> (...)."""
        a, b = self.drift
        d = wrap(np.asarray(pts, dtype=float) - np.asarray(self.center))
        cx = d[..., 0] - d[..., 1] * a / b
        cy = d[..., 1] / b
        return self.kappa(np.hypot(cx, cy))


@functools.cache
def _gauss_legendre():
    """32-point Gauss-Legendre nodes and weights on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(32)
    return (x + 1) / 2, w / 2


def _chord_delay(profile, c, u):
    """D(c, u), the integral of 1/kappa - 1 over [0, u] on the chord cx = c >= 0.

    The power-law core (t < 0.9*t0) is t0^e c^(1-e) cosh(z)^(1-e) dz in
    v = c*sinh(z): its leading term 2^(e-1) e^((1-e)z) is integrated in
    closed form, the rest (decaying like e^(-(1+e)z); under 1e-17 beyond
    z = 20) by Gauss-Legendre on z <= 20, so c = 0 needs no special case.
    The smooth blend ring (0.9*t0 <= t < t0) is integrated by
    Gauss-Legendre in v.  Both sums run within each row (not as a matrix
    product, which rounds by batch size), so D does not depend on the batch,
    and CHORD_ROWS rows at a time bound the (rows, 32) temporaries.
    """
    if len(c) > CHORD_ROWS:
        return np.concatenate([_chord_delay(profile, c[i:i + CHORD_ROWS], u[i:i + CHORD_ROWS])
                               for i in range(0, len(c), CHORD_ROWS)])
    x, w = _gauss_legendre()
    t0, e = profile.t0, profile.exponent
    g = 1.0 - e
    h = np.sqrt(np.maximum(t0 ** 2 - c ** 2, 0.0))
    h9 = np.sqrt(np.maximum((0.9 * t0) ** 2 - c ** 2, 0.0))
    v = np.minimum(np.abs(u), h)
    core = np.minimum(v, h9)
    zmax = np.minimum(np.arcsinh(core / np.maximum(c, 1e-300)), 20.0)
    z = zmax[:, None] * x
    rest = (np.exp(g * z) * ((1 + np.exp(-2 * z)) ** g - 1) * w).sum(axis=1) * zmax
    lead = ((core + np.hypot(c, core)) ** g - c ** g) / g
    ring = np.maximum(v - h9, 0.0)
    t = np.hypot(c[:, None], h9[:, None] + ring[:, None] * x)
    ring_delay = ((1 / profile.kappa(t) - 1) * w).sum(axis=1) * ring
    return np.sign(u) * (t0 ** e * 2 ** -g * (lead + c ** g * rest) - core + ring_delay)


def _arc_length(profile, c, u):
    """The s in [0, 1] with s + D(c, u + s) - D(c, u) = 1: chord covered in unit time.

    Newton steps ds = -kappa * residual, replaced by bisection when they
    leave the bracket or fail to halve (as next to the centre, where kappa
    vanishes); a point is done once its step is below 1e-14, and only the
    rows not done are carried to the next round.  Off the disk (|w| >= h)
    D(c, w) is sign(w) D(c, h) bit for bit, so the quadrature runs once
    for the whole chord and then only at points inside the disk.
    """
    def delay(c, w, h, full):
        d = np.sign(w) * full
        inner = np.abs(w) < h
        if inner.any():
            d[inner] = _chord_delay(profile, c[inner], w[inner])
        return d

    h = np.sqrt(np.maximum(profile.t0 ** 2 - c ** 2, 0.0))
    full = _chord_delay(profile, c, h)
    goal = 1.0 + delay(c, u, h, full)
    out, rows = np.empty_like(u), np.arange(len(u))
    s = np.ones_like(u)
    lo, hi, last = np.zeros_like(u), np.ones_like(u), np.full_like(u, 2.0)
    for _ in range(200):  # bisection alone would reach 2^-200
        us = u + s
        f = s + delay(c, us, h, full) - goal
        lo = np.where(f <= 0, s, lo)
        hi = np.where(f >= 0, s, hi)
        nxt = s - profile.kappa(np.hypot(c, us)) * f
        ok = (lo < nxt) & (nxt < hi) & (2 * np.abs(nxt - s) < last)
        nxt = np.where(ok | (f == 0), nxt, (lo + hi) / 2)
        last, s = np.abs(nxt - s), nxt
        live = last > 1e-14
        if not live.all():
            out[rows[~live]] = s[~live]
            rows, c, u, h, full, goal, s, lo, hi, last = (
                v[live] for v in (rows, c, u, h, full, goal, s, lo, hi, last))
        if not len(rows):
            break
    out[rows] = s
    return out


def flow_time_one(profile, pts, sign=1.0):
    """Time-one map of the slowed flow (sign=-1 for the inverse), in closed form.

    kappa * drift is a time change of the linear flow, so a point moves by
    s * sign * drift along its drift line: s = 1 when its unit arc misses
    every copy of the t0 disk, else s solves s + D(c, u + s) - D(c, u) = 1
    with (c, u) its offsets from that disk, u along the direction of
    travel.  The centre stays fixed; points on the drift line through it
    cross it in finite time, since 1/kappa is integrable.
    """
    if sign not in (1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 2)
    a, b = (float(v) for v in profile.drift)
    d = wrap(flat - np.asarray(profile.center))
    # rows n of disk copies a unit arc can reach; in each, the copy nearest in cx
    span = int(0.5 + abs(b) * (1 + profile.t0)) + 1
    dy = d[:, 1:] - np.arange(-span, span + 1)
    cx = d[:, :1] - dy * a / b
    cx = np.abs(cx - np.rint(cx))
    u = sign * dy / b
    h = np.sqrt(np.maximum(profile.t0 ** 2 - cx ** 2, 0.0))
    meets = (cx < profile.t0) & (u < h) & (u + 1 > -h)
    idx = np.nonzero(meets.any(axis=1))[0]
    s = np.ones(len(flat))
    if len(idx):
        k = meets[idx].argmax(axis=1)
        c, u0 = cx[idx, k], u[idx, k]
        s[idx] = _arc_length(profile, c, u0)
        s[idx[(c == 0) & (u0 == 0)]] = 0.0  # the centre, where kappa = 0, stays fixed
    return mod1(flat + sign * s[:, None] * np.array([a, b])).reshape(pts.shape)


def make_slowed_product(*, label="slowprod"):
    """Product of the cat map and the time-one map of the default SlowFlowProfile.

    Phase space is T^2 x T^2 with coordinates (base, fiber).  The fiber
    map fixes profile.center and creeps in its vicinity, which destroys
    the uniform-contraction property of centre-stable curves while
    keeping the unstable geometry identical to the plain product.
    """
    prof = SlowFlowProfile()
    # flow_time_one is looked up when called, so a patched one is seen
    fiber = (lambda y: flow_time_one(prof, y), lambda y: flow_time_one(prof, y, sign=-1.0))
    return SystemSpec(label, 4, CAT_MATRIX, fiber, satisfies_c1=False)


# -- potentials ------------------------------------------------------------


def geometric_potential(sysm, q=1.0):
    """phi = -q * log of the unstable Jacobian.

    On straight leaves the Jacobian is leaf_rate everywhere, so phi is the
    constant -q * log(leaf_rate): a table with no modes, whose sums
    downstream take their closed forms.
    """
    return constant_potential(-float(q) * np.log(sysm.leaf_rate))


def base_cosine_potential(amplitude=0.05):
    """amplitude * cos(2 pi x_1), a potential that sees only one coordinate."""
    return Potential(modes=((float(amplitude), 0, 1),))


# -- invariant fiber measures of the slowed product ------------------------


def fiber_speed_density(profile, bins=16):
    """Binned invariant density of the slowed fiber flow, proportional to 1/psi.

    Each of the bins x bins cells is averaged over 64 x 64 midpoint
    subsamples; the result sums to 1.
    """
    n = bins * 64
    g = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(g, g, indexing="ij")
    dens = 1.0 / profile.psi(np.stack([xx, yy], axis=-1))
    cell = dens.reshape(bins, 64, bins, 64).mean(axis=(1, 3))
    return cell / cell.sum()


def fiber_point_mass(center, bins=16):
    """Point mass at a fiber location, on the same bins x bins grid."""
    out = np.zeros((bins, bins))
    i = min(int(center[0] * bins), bins - 1)
    j = min(int(center[1] * bins), bins - 1)
    out[i, j] = 1.0
    return out


# -- registry ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    key: str
    system: SystemSpec

    @property
    def h_top(self):
        """Topological entropy of the system, log(leaf_rate)."""
        return float(np.log(self.system.leaf_rate))


_BUILDERS = {"cat": make_toral_automorphism, "skew": make_skew_product,
             "slowprod": make_slowed_product}


def catalog_keys():
    return sorted(_BUILDERS)


def get_system(key):
    """Catalog lookup by key; see catalog_keys() for what is available."""
    try:
        make = _BUILDERS[key]
    except KeyError:
        raise ValueError(f"unknown system {key!r}; have {catalog_keys()}") from None
    return CatalogEntry(key, make(label=key))
