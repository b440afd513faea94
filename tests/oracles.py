"""Reference implementations of the step maps and of evolve_average.

The step maps here are opaque closures over full (..., dim) points, the
slowed product mapping the fiber of every row; evolve_oracle pushes the
full (N, dim) atom array through a step map and bins every axis.  The
package computes the same numbers from a system's base matrix and fiber
map, and the tests compare the two bit for bit.
"""

import numpy as np

import eqmeas
from eqmeas.catalog import CAT_MATRIX, GOLDEN_ROTATION
from eqmeas.equilibrium import EvolveResult, PhaseMeasure

# a hyperbolic matrix with an entry (3) whose products are not all exact
M32 = [[3, 2], [1, 1]]


def _inverse(m):
    return np.rint(np.linalg.inv(m))


def toral_steps(matrix):
    m = np.asarray(matrix, dtype=float)
    minv = _inverse(m)

    def fwd(pts):
        return eqmeas.mod1(np.asarray(pts, dtype=float) @ m.T)

    def back(pts):
        return eqmeas.mod1(np.asarray(pts, dtype=float) @ minv.T)

    return fwd, back


def skew_steps(matrix, rot):
    m = np.asarray(matrix, dtype=float)
    minv = _inverse(m)

    def fwd(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ m.T
        out[..., 2] = pts[..., 2] + rot
        return eqmeas.mod1(out)

    def back(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., :2] = pts[..., :2] @ minv.T
        out[..., 2] = pts[..., 2] - rot
        return eqmeas.mod1(out)

    return fwd, back


def slowprod_steps(profile, matrix):
    m = np.asarray(matrix, dtype=float)

    def every_row(mat, sign):
        def step(pts):
            pts = np.asarray(pts, dtype=float)
            out = np.empty_like(pts)
            out[..., :2] = eqmeas.mod1(pts[..., :2] @ mat.T)
            out[..., 2:] = eqmeas.flow_time_one(profile, pts[..., 2:], sign=sign)
            return out
        return step

    return every_row(m, 1.0), every_row(_inverse(m), -1.0)


def systems_with_oracles():
    """{name: (system, (forward oracle, backward oracle))}."""
    slow = eqmeas.get_system("slowprod").system
    return {
        "cat": (eqmeas.get_system("cat").system, toral_steps(CAT_MATRIX)),
        "skew": (eqmeas.get_system("skew").system, skew_steps(CAT_MATRIX, GOLDEN_ROTATION)),
        "slowprod": (slow, slowprod_steps(slow.profile, CAT_MATRIX)),
        "toral32": (eqmeas.make_toral_automorphism(M32), toral_steps(M32)),
    }


def evolve_oracle(sysm, step, phi, pressure, x, *, steps=40, grid=None, order=10,
                  r=0.05, leaf_radius=1.0, checkpoints=(), atom_budget=10**6):
    """evolve_average with the full (N, dim) atoms mapped by `step` and binned
    on every axis by bin_index_oracle."""
    if grid is None:
        grid = (32,) * sysm.dim
    lm = eqmeas.reference_measure(sysm, phi, pressure, x, order, r=r,
                                  leaf_radius=leaf_radius)
    pts = lm.points()
    w = lm.weights
    thin = 1
    if len(pts) > atom_budget:
        thin = int(np.ceil(len(pts) / atom_budget))
        pts, w = pts[::thin], w[::thin]
    w = w / w.sum()
    acc = np.zeros(int(np.prod(grid)))
    snaps = {}
    marks = set(int(c) for c in checkpoints)
    for k in range(steps):
        if k:
            pts = step(pts)
        acc += np.bincount(bin_index_oracle(pts, grid), weights=w,
                           minlength=int(np.prod(grid)))
        if (k + 1) in marks:
            snaps[k + 1] = PhaseMeasure(tuple(grid), acc / (k + 1))
    return EvolveResult(measure=PhaseMeasure(tuple(grid), acc / steps), snapshots=snaps,
                        steps=steps, atom_count=len(pts), initial_mass=lm.mass(),
                        thin=thin)


def bin_index_oracle(points, grid):
    """Flat C-order bin index, one temporary array per operation."""
    idx = np.zeros(len(points), dtype=np.int64)
    for j, g in enumerate(grid):
        g = int(g)
        ij = np.minimum((points[:, j] * g).astype(np.int64), g - 1)
        idx = idx * g + ij
    return idx
