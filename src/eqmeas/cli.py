"""Command line front end.

One pipeline per invocation, parameters from an INI config:

    eqmeas press --config run.ini --out results/

Pipelines write one CSV each (first line is a `#` schema comment) plus a
summary.json; --check turns the per-pipeline structural checks into the
exit status.  The pipelines of one invocation share one Run, which computes
the potential, the pressure estimate and the evolved measure once.  Exit
codes: 0 ok, 1 bad config or arguments, 2 a check failed, 3 a numeric
failure inside the computation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os

import numpy as np

from . import catalog
from .caratheodory import caratheodory_dim, mass_diagnostics
from .core import constant_potential, zero_potential
from .equilibrium import (birkhoff_probe, convergence_profile, density_vs_reference,
                          disintegrate, evolve_average, gibbs_ratio,
                          holonomy_jacobian, PhaseMeasure,
                          product_structure_check, Rectangle, transitivity_probe)
from .pressure import estimate_pressure

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _float_list(s):
    return [float(v) for v in s.split(",") if v.strip() != ""]


def _int_list(s):
    return [int(v) for v in s.split(",") if v.strip() != ""]


# key -> (parser, validator, default); defaults of None are filled per system
_SCHEMA = {
    "schema_version": (int, lambda v: v == SCHEMA_VERSION, None),
    "system": (str, lambda v: v in ("cat", "skew", "slowprod"), None),
    "potential": (str, lambda v: v in ("zero", "const", "geom", "cos"), "zero"),
    "const_value": (float, lambda v: -10 <= v <= 10, 0.0),
    "q": (float, lambda v: 0 <= v <= 4, 1.0),
    "amplitude": (float, lambda v: 0 <= v <= 0.5, 0.05),
    "r": (float, lambda v: 0 < v <= 0.5, 0.05),
    "gibbs_r": (float, lambda v: 0 < v <= 0.5, 0.2),
    "leaf_radius": (float, lambda v: 0 < v <= 2, 0.1),
    "evolve_leaf_radius": (float, lambda v: 0 < v <= 2, 1.0),
    "order": (int, lambda v: 1 <= v <= 16, 8),
    "evolve_order": (int, lambda v: 1 <= v <= 16, 10),
    "n_lo": (int, lambda v: 2 <= v <= 16, 6),
    "n_hi": (int, lambda v: 3 <= v <= 20, 12),
    "gibbs_n_lo": (int, lambda v: 1 <= v <= 16, 3),
    "gibbs_n_hi": (int, lambda v: 2 <= v <= 20, 8),
    "steps": (int, lambda v: 1 <= v <= 200, 40),
    "grid": (_int_list, lambda v: all(2 <= g <= 256 for g in v), None),
    "seed": (int, lambda v: 0 <= v < 2**31, 0),
    "base_x": (_float_list, lambda v: all(0 <= c < 1 for c in v), None),
    "base_y": (_float_list, lambda v: all(0 <= c < 1 for c in v), None),
    "delta": (float, lambda v: 0 < v <= 0.5, 0.1),
    "k_max": (int, lambda v: 1 <= v <= 64, 14),
    "n_centers": (int, lambda v: 1 <= v <= 256, 12),
    "n_mc": (int, lambda v: 16 <= v <= 10**6, 8192),
    "n_cells": (int, lambda v: 2 <= v <= 256, 16),
    "tol_dim": (float, lambda v: 0 < v <= 0.5, 0.02),
    "ratio_lo": (float, lambda v: 0 < v < 1, 0.8),
    "ratio_hi": (float, lambda v: v > 1, 1.25),
    "rect_du": (float, lambda v: 0 < v <= 0.5, 0.15),
    "rect_dcs": (float, lambda v: 0 < v <= 0.5, 0.15),
    "birkhoff_steps": (int, lambda v: 10 <= v <= 10**6, 10_000),
    "n_samples": (int, lambda v: 1 <= v <= 10**4, 200),
}

_REQUIRED = ("schema_version", "system")

_DEFAULT_BASE = {
    "cat": [0.2, 0.7],
    "skew": [0.2, 0.7, 0.37],
    "slowprod": [0.2, 0.7, 0.13, 0.86],
}
_DEFAULT_TARGET = {
    "cat": [0.61, 0.13],
    "skew": [0.61, 0.13, 0.37],
    "slowprod": [0.61, 0.13, 0.5, 0.5],
}
_DEFAULT_GRID = {
    "cat": [32, 32],
    "skew": [16, 16, 8],
    "slowprod": [16, 16, 16, 16],
}
# evolve holds a float array of one entry per cell, plus one per bincount
_MAX_GRID_CELLS = 65_536


def _parse(key, value):
    """Convert and range-check one value against the schema."""
    conv, check, _ = _SCHEMA[key]
    try:
        parsed = conv(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from None
    if not check(parsed):
        raise ConfigError(f"value out of range for {key!r}: {parsed!r}")
    return parsed


def load_config(path):
    """Parse and validate the [run] section; unknown keys are errors."""
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "run" not in parser:
        raise ConfigError("config needs a [run] section")
    raw = dict(parser["run"])
    extra = [k for k in parser.sections() if k != "run"]
    if extra:
        raise ConfigError(f"unexpected sections {extra}")
    cfg = {}
    for key, value in raw.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key {key!r} in [run]")
        cfg[key] = _parse(key, value)
    for key in _REQUIRED:
        if key not in cfg:
            raise ConfigError(f"missing required key {key!r}")
    for key, (_, _, default) in _SCHEMA.items():
        cfg.setdefault(key, default)
    sysk = cfg["system"]
    if cfg["base_x"] is None:
        cfg["base_x"] = _DEFAULT_BASE[sysk]
    if cfg["base_y"] is None:
        cfg["base_y"] = _DEFAULT_TARGET[sysk]
    if cfg["grid"] is None:
        cfg["grid"] = _DEFAULT_GRID[sysk]
    entry = catalog.get_system(sysk)
    for key in ("base_x", "base_y"):
        if len(cfg[key]) != entry.system.dim:
            raise ConfigError(f"{key} needs {entry.system.dim} coordinates")
    if len(cfg["grid"]) == 1:
        cfg["grid"] = cfg["grid"] * entry.system.dim
    if len(cfg["grid"]) != entry.system.dim:
        raise ConfigError(f"grid needs {entry.system.dim} axes")
    if int(np.prod(cfg["grid"])) > _MAX_GRID_CELLS:
        raise ConfigError(f"grid {cfg['grid']} has more than {_MAX_GRID_CELLS} cells")
    if cfg["n_hi"] <= cfg["n_lo"] or cfg["gibbs_n_hi"] <= cfg["gibbs_n_lo"]:
        raise ConfigError("order windows must satisfy lo < hi")
    return cfg


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return "%.12g" % float(v)
    return str(v)


def write_csv(path, pipeline, cols, rows):
    with open(path, "w") as f:
        f.write(f"# pipeline={pipeline} schema_version={SCHEMA_VERSION} "
                f"cols={','.join(cols)}\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")


class Run:
    """One invocation's config, system and shared stages, each computed on first use."""

    def __init__(self, cfg, sysm):
        self.cfg = cfg
        self.sys = sysm

    @functools.cached_property
    def phi(self):
        kind = self.cfg["potential"]
        if kind == "zero":
            return zero_potential()
        if kind == "const":
            return constant_potential(self.cfg["const_value"])
        if kind == "geom":
            return catalog.geometric_potential(self.sys, self.cfg["q"])
        return catalog.base_cosine_potential(self.cfg["amplitude"])

    @functools.cached_property
    def pressure(self):
        cfg = self.cfg
        return estimate_pressure(self.sys, self.phi, np.array(cfg["base_x"]),
                                 window=(cfg["n_lo"], cfg["n_hi"]),
                                 leaf_radius=cfg["leaf_radius"])

    @functools.cached_property
    def evolved(self):
        # snapshots serve only run_evolve; the averaged measure does not depend on them
        cfg = self.cfg
        marks = sorted({max(1, cfg["steps"] // 4), cfg["steps"] // 2, cfg["steps"]})
        return evolve_average(self.sys, self.phi, self.pressure.value,
                              np.array(cfg["base_x"]), steps=cfg["steps"],
                              grid=tuple(cfg["grid"]), order=cfg["evolve_order"],
                              r=cfg["r"], leaf_radius=cfg["evolve_leaf_radius"],
                              checkpoints=marks)


# -- pipelines ---------------------------------------------------------------


def run_press(run):
    est = run.pressure
    checks = [("pressure_radius_spread", est.spread < 0.02,
               f"spread={est.spread:.3g}")]
    summary = {"pressure": est.value, "spread": est.spread,
               "per_radius": {str(k): v for k, v in est.per_radius.items()}}
    return est.table, ("n", "r", "count", "log_z"), summary, checks


def run_cdim(run):
    # caratheodory_dim first: its cover-size limit exits 3 before the pressure is paid for
    cfg = run.cfg
    seg = (-cfg["leaf_radius"], cfg["leaf_radius"])
    out = caratheodory_dim(run.sys, run.phi, np.array(cfg["base_x"]), seg,
                           r=cfg["r"], tol=cfg["tol_dim"])
    pressure = run.pressure.value
    gap = abs(out["dim"] - pressure)
    checks = [("bracket_width", out["hi"] - out["lo"] <= cfg["tol_dim"] + 1e-12,
               f"width={out['hi'] - out['lo']:.4g}"),
              ("dim_matches_pressure", gap < 0.07, f"gap={gap:.4g}")]
    summary = {"dim": out["dim"], "lo": out["lo"], "hi": out["hi"],
               "pressure": pressure, "gap": gap}
    return out["evals"], ("alpha", "trend"), summary, checks


def run_refmeas(run):
    cfg, pressure = run.cfg, run.pressure.value
    rng = np.random.default_rng(cfg["seed"])
    bases = rng.random((20, run.sys.dim))
    diag = mass_diagnostics(run.sys, run.phi, pressure, bases,
                            orders=range(cfg["n_lo"], cfg["n_hi"] + 1),
                            r=cfg["r"], leaf_radius=cfg["leaf_radius"])
    rows = []
    for i in range(diag["masses"].shape[0]):
        for j, n in enumerate(diag["orders"]):
            rows.append((i, n, diag["masses"][i, j]))
    checks = [("mass_ratio", diag["ratio"] < 10, f"ratio={diag['ratio']:.4g}"),
              ("mass_slope", diag["worst_slope"] <= 0.05,
               f"slope={diag['worst_slope']:.4g}")]
    summary = {"ratio": diag["ratio"], "worst_slope": diag["worst_slope"],
               "pressure": pressure}
    return rows, ("base", "order", "mass"), summary, checks


def run_evolve(run):
    res, sysm = run.evolved, run.sys
    rows = convergence_profile(res)
    unif = PhaseMeasure.uniform(tuple(run.cfg["grid"]))
    tv_unif = res.measure.tv(unif)
    checks = []
    if sysm.satisfies_c1 and sysm.transitive:
        checks.append(("tv_to_uniform", tv_unif < 0.1, f"tv={tv_unif:.4g}"))
    summary = {"tv_to_uniform": tv_unif, "atoms": res.atom_count,
               "steps": res.steps, "pressure": run.pressure.value, "thin": res.thin}
    return rows, ("checkpoint", "tv_to_final"), summary, checks


def run_gibbs(run):
    cfg, pressure = run.cfg, run.pressure.value
    rep = gibbs_ratio(run.sys, run.phi, run.evolved.measure, pressure,
                      orders=range(cfg["gibbs_n_lo"], cfg["gibbs_n_hi"] + 1),
                      r=cfg["gibbs_r"], n_centers=cfg["n_centers"],
                      n_mc=cfg["n_mc"], seed=cfg["seed"])
    rows = [(n, rep.median_ratios[j], rep.qhat[j], int(rep.floored[j]))
            for j, n in enumerate(rep.orders)]
    if run.sys.satisfies_c1:
        checks = [("qhat_bounded", rep.qhat_max < 10, f"qhat={rep.qhat_max:.4g}"),
                  ("qhat_flat", abs(rep.trend) < 0.05, f"trend={rep.trend:.4g}")]
    else:
        checks = [("qhat_blows_up", rep.trend > 0.05, f"trend={rep.trend:.4g}")]
    summary = {"qhat_max": rep.qhat_max, "trend": rep.trend,
               "floored": int(rep.floored.sum()), "pressure": pressure}
    return rows, ("n", "median_ratio", "qhat", "floored"), summary, checks


def run_holonomy(run):
    cfg, sysm, pressure = run.cfg, run.sys, run.pressure.value
    y = np.array(cfg["base_x"])
    z = sysm.cs_chart(y, np.full(sysm.dim - 1, 0.05 / np.sqrt(sysm.dim - 1)))
    z = sysm.unstable_chart(z, 0.03)
    out = holonomy_jacobian(sysm, run.phi, pressure, y, z, order=cfg["order"],
                            r=cfg["r"], leaf_radius=cfg["leaf_radius"],
                            n_cells=cfg["n_cells"])
    rows = [(i, out["ratios"][i]) for i in range(len(out["ratios"]))]
    ok = cfg["ratio_lo"] <= out["min"] and out["max"] <= cfg["ratio_hi"]
    checks = [("jacobian_window", ok,
               f"range=[{out['min']:.4g}, {out['max']:.4g}]")]
    summary = {"min": out["min"], "max": out["max"], "offset": out["offset"],
               "pressure": pressure}
    return rows, ("cell", "ratio"), summary, checks


def run_disintegrate(run):
    cfg, sysm, pressure = run.cfg, run.sys, run.pressure.value
    rect = Rectangle(sys=sysm, anchor=np.array(cfg["base_y"]),
                     du=cfg["rect_du"], dcs=cfg["rect_dcs"])
    fam = disintegrate(sysm, run.evolved.measure, rect, n_u=8)
    dens = density_vs_reference(sysm, run.phi, pressure, fam, r=cfg["r"],
                                order=cfg["order"])
    prod = product_structure_check(sysm, run.evolved.measure, rect, n_u=8)
    checks = [("conditional_constant", dens["c0"] < 3, f"c0={dens['c0']:.4g}"),
              ("product_tv", prod["tv"] < 0.1, f"tv={prod['tv']:.4g}")]
    summary = {"c0": dens["c0"], "product_tv": prod["tv"],
               "mass_inside": fam.mass_inside, "pressure": pressure}
    return dens["per_plaque"], ("plaque", "c0"), summary, checks


def run_probe(run):
    cfg, sysm = run.cfg, run.sys
    hit = transitivity_probe(sysm, np.array(cfg["base_x"]),
                             np.array(cfg["base_y"]), delta=cfg["delta"],
                             k_max=cfg["k_max"])
    obs = lambda pts: np.cos(2 * np.pi * pts[..., 0])
    bk = birkhoff_probe(sysm, run.evolved.measure, obs, n_steps=cfg["birkhoff_steps"],
                        n_samples=cfg["n_samples"], seed=cfg["seed"])
    rows = [("transit_k", -1 if hit is None else hit["k"]),
            ("dispersion", bk["dispersion"]),
            ("agree_fraction", bk["agree_fraction"])]
    checks = []
    if sysm.transitive:
        checks.append(("transitivity", hit is not None,
                       "no k" if hit is None else f"k={hit['k']}"))
    if sysm.satisfies_c1 and sysm.transitive:
        checks.append(("birkhoff_dispersion", bk["dispersion"] < 0.05,
                       f"dispersion={bk['dispersion']:.4g}"))
    summary = {"transit_k": None if hit is None else hit["k"],
               "dispersion": bk["dispersion"],
               "agree_fraction": bk["agree_fraction"]}
    return rows, ("quantity", "value"), summary, checks


_RUNNERS = {
    "press": run_press,
    "cdim": run_cdim,
    "refmeas": run_refmeas,
    "evolve": run_evolve,
    "gibbs": run_gibbs,
    "holonomy": run_holonomy,
    "disintegrate": run_disintegrate,
    "probe": run_probe,
}
PIPELINES = (*_RUNNERS, "fullsuite")


def main(argv=None):
    ap = argparse.ArgumentParser(prog="eqmeas",
                                 description="equilibrium-measure pipelines")
    ap.add_argument("pipeline", choices=PIPELINES)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default="eqmeas_out")
    ap.add_argument("--check", action="store_true",
                    help="fail (exit 2) when a structural check fails")
    ap.add_argument("--seed", type=int, default=None)
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = _parse("seed", args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}")
        return 1

    os.makedirs(args.out, exist_ok=True)
    names = list(_RUNNERS) if args.pipeline == "fullsuite" else [args.pipeline]

    summary = {"schema_version": SCHEMA_VERSION, "config": dict(cfg),
               "system": cfg["system"], "pipelines": {}, "checks": []}
    all_ok = True
    try:
        run = Run(cfg, catalog.get_system(cfg["system"]).system)
        for name in names:
            rows, cols, part, checks = _RUNNERS[name](run)
            write_csv(os.path.join(args.out, f"{name}.csv"), name, cols, rows)
            summary["pipelines"][name] = part
            for cname, ok, detail in checks:
                summary["checks"].append(
                    {"pipeline": name, "name": cname, "passed": bool(ok),
                     "detail": detail})
                all_ok &= bool(ok)
                print(f"[{name}] {cname}: {'ok' if ok else 'FAIL'} ({detail})")
    except (ArithmeticError, ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}")
        return 3

    with open(os.path.join(args.out, "summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True, default=float)
        f.write("\n")
    if args.check and not all_ok:
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
