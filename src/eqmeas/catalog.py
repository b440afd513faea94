"""Built-in model systems: a hyperbolic torus map, a rotation extension of it,
and a product whose second factor is the time-one map of a slowed linear flow.

All three share straight unstable leaves directed along the expanding
eigenvector of the base matrix, which is what makes closed-form Bowen
geometry available to the rest of the package.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .core import Potential, SystemSpec, mod1, wrap

CAT_MATRIX = np.array([[2, 1], [1, 1]], dtype=float)
GOLDEN_ROTATION = np.sqrt(2.0) - 1.0


def _integer_inverse(m):
    inv = np.linalg.inv(m)
    rounded = np.rint(inv)
    if not np.allclose(inv, rounded, atol=1e-9):
        raise ValueError("matrix is not invertible over the integers")
    return rounded


def _hyperbolic_eigendata(m):
    """(lam_u, e_u, lam_s, e_s) for a 2x2 integer hyperbolic matrix.

    Eigenvectors are unit vectors with a deterministic sign (first
    nonzero component positive).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError("only 2x2 base matrices are supported")
    if not np.allclose(m, np.rint(m), atol=1e-12):
        raise ValueError("base matrix must have integer entries")
    if abs(abs(np.linalg.det(m)) - 1.0) > 1e-12:
        raise ValueError("base matrix must have determinant +-1")
    vals, vecs = np.linalg.eig(m)
    if np.iscomplexobj(vals) and np.abs(vals.imag).max() > 1e-12:
        raise ValueError("base matrix has non-real spectrum, not hyperbolic")
    vals = vals.real
    vecs = vecs.real
    if np.any(np.abs(np.abs(vals) - 1.0) < 1e-9):
        raise ValueError("base matrix has an eigenvalue on the unit circle")
    order = np.argsort(-np.abs(vals))
    lam_u, lam_s = vals[order[0]], vals[order[1]]
    e_u, e_s = vecs[:, order[0]], vecs[:, order[1]]
    out = []
    for v in (e_u, e_s):
        v = v / np.linalg.norm(v)
        lead = v[np.nonzero(np.abs(v) > 1e-14)[0][0]]
        out.append(v if lead > 0 else -v)
    return float(lam_u), out[0], float(lam_s), out[1]


def make_toral_automorphism(matrix=None, *, r0=0.2, tau=1.0, label="toral"):
    """Hyperbolic automorphism of T^2 from an integer matrix.

    Defaults to [[2, 1], [1, 1]].  Raises ValueError when the matrix is
    not an integer unimodular hyperbolic matrix.
    """
    m = CAT_MATRIX if matrix is None else np.asarray(matrix, dtype=float)
    lam_u, e_u, lam_s, e_s = _hyperbolic_eigendata(m)
    minv = _integer_inverse(m)
    rate = abs(lam_u)

    def fwd(pts):
        return mod1(np.asarray(pts, dtype=float) @ m.T)

    def back(pts):
        return mod1(np.asarray(pts, dtype=float) @ minv.T)

    return SystemSpec(
        label=label,
        dim=2,
        step_fwd=fwd,
        step_back=back,
        frame=np.stack([e_u, e_s]),
        leaf_rate=rate,
        nu=abs(lam_s),
        r0=r0,
        tau=tau,
    )


def as_rational(x, max_den=10**6, tol=1e-12):
    """Best rational approximation p/q with q <= max_den, or None.

    Walks the continued-fraction convergents of x and returns the first
    one within tol.  Used to reject resonant rotation numbers.
    """
    x = float(x)
    p0, q0 = 1, 0
    p1, q1 = int(np.floor(x)), 1
    frac = x - np.floor(x)
    while q1 <= max_den:
        if abs(x - p1 / q1) < tol:
            return p1, q1
        if frac == 0.0:
            return None
        r = 1.0 / frac
        a = int(np.floor(r))
        frac = r - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return None


def make_skew_product(matrix=None, rotation=GOLDEN_ROTATION, *,
                      r0=0.2, tau=1.0, allow_resonant=False, label="skew"):
    """Circle extension (x, theta) -> (Mx, theta + rotation) over a torus map.

    The fiber rotation must be irrational for the product to be
    transitive; a rotation that is rational (or indistinguishable from a
    rational with denominator <= 10^6) raises ValueError unless
    allow_resonant is set, in which case the system is built with its
    transitive flag cleared.
    """
    m = CAT_MATRIX if matrix is None else np.asarray(matrix, dtype=float)
    lam_u, e_u, lam_s, e_s = _hyperbolic_eigendata(m)
    minv = _integer_inverse(m)
    rate = abs(lam_u)
    rot = float(rotation)
    res = as_rational(rot)
    if res is not None and not allow_resonant:
        raise ValueError(
            f"rotation {rot!r} is rational ({res[0]}/{res[1]}) to within 1e-12; "
            "the skew product is not transitive (pass allow_resonant=True to "
            "build it anyway)")

    def fwd(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ m.T
        out[..., 2] = pts[..., 2] + rot
        return mod1(out)

    def back(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ minv.T
        out[..., 2] = pts[..., 2] - rot
        return mod1(out)

    frame = np.zeros((3, 3))
    frame[0, :2] = e_u
    frame[1, :2] = e_s
    frame[2, 2] = 1.0
    return SystemSpec(
        label=label,
        dim=3,
        step_fwd=fwd,
        step_back=back,
        frame=frame,
        leaf_rate=rate,
        nu=1.0,
        r0=r0,
        tau=tau,
        transitive=res is None,
    )


# -- slowed linear flow on the fiber torus ---------------------------------


@dataclasses.dataclass(frozen=True)
class SlowFlowProfile:
    """Speed profile of a linear T^2 flow slowed to a halt at one point.

    The flow field is psi(y) * drift where psi = kappa(distance to center
    in straightened coordinates).  kappa(t) = (t/t0)^exponent below
    0.9*t0, blends smoothly (C^2) to 1 on [0.9*t0, t0] and equals 1
    outside, so 1/psi stays integrable and the slowed flow carries a
    finite invariant density.  step is the RK4 step for the time-one map;
    steps whose starting speed falls below refine_below are re-done as
    two half steps.
    """

    t0: float = 0.1
    exponent: float = 0.5
    drift: tuple = (1.0, np.sqrt(2.0))
    center: tuple = (0.5, 0.5)
    step: float = 1e-3
    refine_below: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.exponent < 1.0:
            raise ValueError("exponent must be in (0, 1) for an integrable slow-down")
        if self.t0 <= 0:
            raise ValueError("t0 must be positive")

    def kappa(self, t):
        """Scalar speed factor as a function of straightened distance."""
        t = np.asarray(t, dtype=float)
        base = np.where(t > 0, (np.clip(t, 1e-300, None) / self.t0) ** self.exponent, 0.0)
        u = np.clip((t - 0.9 * self.t0) / (0.1 * self.t0), 0.0, 1.0)
        s = u ** 3 * (10 + u * (6 * u - 15))
        return np.where(t >= self.t0, 1.0, (1 - s) * base + s)

    def psi(self, pts):
        """Speed field on the fiber torus, shape (..., 2) -> (...)."""
        a, b = self.drift
        d = wrap(np.asarray(pts, dtype=float) - np.asarray(self.center))
        cx = d[..., 0] - d[..., 1] * a / b
        cy = d[..., 1] / b
        return self.kappa(np.hypot(cx, cy))


def _rk4_step(profile, pts, h, v):
    k1 = profile.psi(pts)[..., None] * v
    k2 = profile.psi(pts + h / 2 * k1)[..., None] * v
    k3 = profile.psi(pts + h / 2 * k2)[..., None] * v
    k4 = profile.psi(pts + h * k3)[..., None] * v
    return pts + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def flow_time_one(profile, pts, sign=1.0):
    """Time-one map of the slowed flow (sign=-1 for the inverse).

    Fixed-step RK4 at profile.step, with two half steps wherever the
    starting speed is below profile.refine_below.  Coordinates stay
    unwrapped during integration (psi wraps internally) and are reduced
    mod 1 once at the end.
    """
    pts = np.array(pts, dtype=float, copy=True)
    single = pts.ndim == 1
    if single:
        pts = pts[None]
    h = profile.step
    v = float(sign) * np.asarray(profile.drift, dtype=float)
    for _ in range(int(round(1.0 / h))):
        lo = profile.psi(pts) < profile.refine_below
        nxt = _rk4_step(profile, pts, h, v)
        if lo.any():
            half = _rk4_step(profile, _rk4_step(profile, pts, h / 2, v), h / 2, v)
            nxt = np.where(lo[..., None], half, nxt)
        pts = nxt
    out = mod1(pts)
    return out[0] if single else out


def make_slowed_product(profile=None, matrix=None, *, r0=0.2, tau=1.0, label="slowprod"):
    """Product of a hyperbolic torus map and a slowed-flow time-one map.

    Phase space is T^2 x T^2 with coordinates (base, fiber).  The fiber
    map fixes profile.center and creeps in its vicinity, which destroys
    the uniform-contraction property of centre-stable curves while
    keeping the unstable geometry identical to the plain product.
    """
    prof = SlowFlowProfile() if profile is None else profile
    m = CAT_MATRIX if matrix is None else np.asarray(matrix, dtype=float)
    lam_u, e_u, lam_s, e_s = _hyperbolic_eigendata(m)
    minv = _integer_inverse(m)
    rate = abs(lam_u)

    def _fiber(fib, sign):
        flat = fib.reshape(-1, 2)
        # pushforwards of leaf measures carry one shared fiber point per
        # cloud; integrating a single representative is then exact
        if len(flat) > 1 and np.ptp(flat, axis=0).max() == 0.0:
            one = flow_time_one(prof, flat[:1], sign=sign)
            return np.broadcast_to(one, flat.shape).reshape(fib.shape)
        return flow_time_one(prof, flat, sign=sign).reshape(fib.shape)

    def fwd(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = mod1(pts[..., :2] @ m.T)
        out[..., 2:] = _fiber(pts[..., 2:], 1.0)
        return out

    def back(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = mod1(pts[..., :2] @ minv.T)
        out[..., 2:] = _fiber(pts[..., 2:], -1.0)
        return out

    frame = np.zeros((4, 4))
    frame[0, :2] = e_u
    frame[1, :2] = e_s
    frame[2, 2] = 1.0
    frame[3, 3] = 1.0
    sysm = SystemSpec(
        label=label,
        dim=4,
        step_fwd=fwd,
        step_back=back,
        frame=frame,
        leaf_rate=rate,
        nu=1.0,
        r0=r0,
        tau=tau,
        satisfies_c1=False,
    )
    sysm.profile = prof
    return sysm


# -- potentials ------------------------------------------------------------


def geometric_potential(sysm, q=1.0):
    """phi = -q * log of the unstable Jacobian.

    On straight leaves the Jacobian is leaf_rate everywhere, so phi is the
    constant -q * log(leaf_rate) and carries the constant tag that lets
    downstream sums take their closed forms.
    """
    q = float(q)
    c = float(-q * np.log(sysm.leaf_rate))
    return Potential(
        fn=lambda x: np.full(x.shape[:-1], c),
        label=f"geom[q={q:g}]",
        constant_value=c,
    )


def base_cosine_potential(amplitude=0.05):
    """amplitude * cos(2 pi x_1), a potential that sees only one coordinate."""
    amp = float(amplitude)
    return Potential(
        fn=lambda x: amp * np.cos(2 * np.pi * x[..., 0]),
        label=f"cos[{amp:g}]",
    )


# -- invariant fiber measures of the slowed product ------------------------


def fiber_speed_density(profile, bins=16, sub=64):
    """Binned invariant density of the slowed fiber flow, proportional to 1/psi.

    Each of the bins x bins cells is averaged over sub x sub midpoint
    subsamples; the result sums to 1.
    """
    n = bins * sub
    g = (np.arange(n) + 0.5) / n
    xx, yy = np.meshgrid(g, g, indexing="ij")
    dens = 1.0 / profile.psi(np.stack([xx, yy], axis=-1))
    cell = dens.reshape(bins, sub, bins, sub).mean(axis=(1, 3))
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
    h_top: float
    notes: dict


def _entry_cat():
    s = make_toral_automorphism(label="cat")
    return CatalogEntry("cat", s, float(np.log(s.leaf_rate)),
                        {"matrix": CAT_MATRIX.tolist()})


def _entry_skew():
    s = make_skew_product(label="skew")
    return CatalogEntry("skew", s, float(np.log(s.leaf_rate)),
                        {"rotation": GOLDEN_ROTATION})


def _entry_slowprod():
    s = make_slowed_product(label="slowprod")
    return CatalogEntry("slowprod", s, float(np.log(s.leaf_rate)),
                        {"t0": s.profile.t0, "exponent": s.profile.exponent})


_BUILDERS = {"cat": _entry_cat, "skew": _entry_skew, "slowprod": _entry_slowprod}


def catalog_keys():
    return sorted(_BUILDERS)


def get_system(key):
    """Catalog lookup by key; see catalog_keys() for what is available."""
    try:
        return _BUILDERS[key]()
    except KeyError:
        raise ValueError(f"unknown system {key!r}; have {catalog_keys()}") from None
