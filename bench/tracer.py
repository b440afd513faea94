"""Spans and counts recorded from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent, run id):
at its defining module, at every `from ... import` binding of it inside
the package, and in the CLI's pipeline table.  The step maps of each
system returned by `catalog.get_system` are wrapped too, under the name
`catalog.step_fwd.<system>` / `catalog.step_back.<system>`.  Counts are
read from call arguments and return values.  `uninstall()` restores the
originals.

Self time of a span is its duration minus the durations of its direct
children; children run inside their parent, so they never overlap.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import statistics
import time

import numpy as np

PACKAGE = "eqmeas"
MODULES = ("cli", "catalog", "core", "bowen", "pressure", "caratheodory",
           "equilibrium")
SYSTEMS = ("cat", "skew", "slowprod")
PIPELINES = ("press", "cdim", "refmeas", "evolve", "gibbs", "holonomy",
             "disintegrate", "probe")


def _npoints(pts):
    shape = np.shape(pts)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg_key(args, kwargs):
    """Hashable identity of a call's arguments (systems and potentials by label)."""
    def one(v):
        if isinstance(v, np.ndarray):
            return (v.shape, v.tobytes())
        if hasattr(v, "label"):
            return v.label
        if isinstance(v, (list, tuple, range)):
            return tuple(one(x) for x in v)
        return repr(v)
    return (tuple(one(a) for a in args),
            tuple(sorted((k, one(v)) for k, v in kwargs.items())))


class Tracer:
    """In-memory span and count recorder for one worker process."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent index, run id)
        self.counts = collections.defaultdict(float)   # (run id, key) -> n
        self.keys = collections.defaultdict(set)       # (run id, key) -> arg keys
        self.run_id = 0
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, self.run_id))  # open span
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.run_id)
            if count is not None:
                count(self, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, key, n=1.0):
        self.counts[(self.run_id, key)] += n

    def parent_name(self, idx):
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else ""

    # -- patching ----------------------------------------------------------

    def _set(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self):
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if attr == "get_system":
                    wrapped[id(fn)] = self._wrap(self._traced_get_system(fn),
                                                 f"{short}.{attr}")
                else:
                    wrapped[id(fn)] = self._wrap(fn, f"{short}.{attr}",
                                                 _COUNTERS.get(f"{short}.{attr}"))
        namespaces = [importlib.import_module(PACKAGE)] + list(mods.values())
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if callable(value) and id(value) in wrapped:
                    self._set(ns, attr, wrapped[id(value)])
        runners = mods["cli"]._RUNNERS
        for name, fn in list(runners.items()):
            self._patches.append((runners, name, fn))
            runners[name] = wrapped[id(fn)]

    def _traced_get_system(self, get_system):
        def traced_get_system(key):
            entry = get_system(key)
            sysm = entry.system
            sysm.step_fwd = self._wrap(sysm.step_fwd, f"catalog.step_fwd.{key}",
                                       _count_step(f"catalog.step_fwd.{key}"))
            sysm.step_back = self._wrap(sysm.step_back, f"catalog.step_back.{key}",
                                        _count_step(f"catalog.step_back.{key}"))
            return entry
        return traced_get_system

    def uninstall(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            if isinstance(obj, dict):
                obj[attr] = value
            else:
                setattr(obj, attr, value)

    # -- derived metrics ---------------------------------------------------

    def per_run(self):
        """{run id: {metric: value}} from the spans and counts of each run."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = collections.defaultdict(float)
        self_s = collections.defaultdict(float)
        calls = collections.defaultdict(int)
        runs = set()
        for i, (name, t0, t1, parent, run) in enumerate(self.spans):
            runs.add(run)
            incl[(run, name)] += t1 - t0
            self_s[(run, name)] += t1 - t0 - child[i]
            calls[(run, name)] += 1
        out = {}
        for run in sorted(runs):
            out[run] = self._metrics(run, incl, self_s, calls)
        return out

    def _metrics(self, run, incl, self_s, calls):
        def total(table, prefix):
            return sum(v for (r, n), v in table.items()
                       if r == run and (n == prefix or n.startswith(prefix + ".")))

        def cnt(key):
            return self.counts.get((run, key), 0.0)

        def ratio(num, den, empty=0.0):
            return num / den if den else empty

        m = {}
        for mod in MODULES:
            m[f"layer.{mod}.self_s"] = total(self_s, mod)
        m["trace.spans"] = float(sum(v for (r, _), v in calls.items() if r == run))
        for fn in ("evolve_average", "estimate_pressure"):
            n = cnt(f"cli.{fn}.calls")
            m[f"cli.{fn}.distinct_ratio"] = ratio(
                len(self.keys.get((run, f"cli.{fn}"), ())), n, 1.0)
        for p in PIPELINES:
            m[f"cli.pipeline.{p}.incl_s"] = total(incl, f"cli.run_{p}")
        m["cli.write_csv.self_s"] = total(self_s, "cli.write_csv")
        for sysk in SYSTEMS:
            for d in ("fwd", "back"):
                key = f"catalog.step_{d}.{sysk}"
                m[f"{key}.batch.ns_per_point"] = 1e9 * ratio(
                    cnt(f"{key}.batch.s"), cnt(f"{key}.batch.points"))
            m[f"catalog.step_fwd.{sysk}.points"] = cnt(f"catalog.step_fwd.{sysk}.points")
        m["catalog.step_fwd.slowprod.single.us_per_call"] = 1e6 * ratio(
            cnt("catalog.step_fwd.slowprod.single.s"),
            cnt("catalog.step_fwd.slowprod.single.calls"))
        for name, extra in (
                ("catalog.flow_time_one", ("points",)),
                ("caratheodory.cover_cost", ("candidates", "strategy.chain",
                                             "strategy.dp", "strategy.walk")),
                ("caratheodory.reference_measure", ("atoms",)),
                ("bowen.separated_net", ()),
                ("equilibrium.evolve_average", ("atoms",)),
                ("pressure.estimate_pressure", ()),
                ("core.birkhoff_sum", ())):
            m[f"{name}.calls"] = float(calls.get((run, name), 0))
            m[f"{name}.self_s"] = self_s.get((run, name), 0.0)
            for e in extra:
                m[f"{name}.{e}"] = cnt(f"{name}.{e}")
        m["caratheodory.caratheodory_dim.trend_evals"] = cnt(
            "caratheodory.caratheodory_dim.trend_evals")
        m["equilibrium.gibbs_ratio.self_s"] = self_s.get((run, "equilibrium.gibbs_ratio"), 0.0)
        m["equilibrium.gibbs_ratio.floored_frac"] = ratio(
            cnt("equilibrium.gibbs_ratio.floored"), cnt("equilibrium.gibbs_ratio.cells"))
        m["equilibrium.birkhoff_probe.self_s"] = self_s.get(
            (run, "equilibrium.birkhoff_probe"), 0.0)
        m["equilibrium.transitivity_probe.self_s"] = self_s.get(
            (run, "equilibrium.transitivity_probe"), 0.0)
        m["equilibrium.transitivity_probe.found"] = cnt("equilibrium.transitivity_probe.found")
        return m


def median_metrics(per_run):
    """Median over runs of each metric."""
    names = next(iter(per_run.values())).keys()
    return {k: statistics.median(r[k] for r in per_run.values()) for k in names}


# -- counters: (tracer, span index, args, kwargs, result) -> None -------------


def _count_step(key):
    def count(tr, idx, args, kwargs, result):
        _, t0, t1, _, _ = tr.spans[idx]
        n = _npoints(args[0])
        tr.count(f"{key}.points", n)
        if np.ndim(args[0]) > 1 and n > 1:
            tr.count(f"{key}.batch.points", n)
            tr.count(f"{key}.batch.s", t1 - t0)
        elif np.ndim(args[0]) == 1:
            tr.count(f"{key}.single.calls")
            tr.count(f"{key}.single.s", t1 - t0)
    return count


def _count_distinct(key, ignore=()):
    """Count calls made from the CLI and the distinct argument sets among them."""
    def count(tr, idx, args, kwargs, result):
        if tr.parent_name(idx).startswith("cli."):
            tr.count(f"{key}.calls")
            kept = {k: v for k, v in kwargs.items() if k not in ignore}
            tr.keys[(tr.run_id, key)].add(_arg_key(args, kept))
    return count


# checkpoints only selects which running averages are kept as snapshots;
# the evolved measure is the same with or without them.
_count_cli_evolve = _count_distinct("cli.evolve_average", ignore=("checkpoints",))


def _count_evolve(tr, idx, args, kwargs, result):
    _count_cli_evolve(tr, idx, args, kwargs, result)
    tr.count("equilibrium.evolve_average.atoms", result.atom_count)


def _count_cover(tr, idx, args, kwargs, result):
    tr.count(f"caratheodory.cover_cost.strategy.{result.strategy}")
    if result.strategy == "walk":
        n = result.table[0][1] * (result.span + 1)
    else:
        n = sum(row[1] for row in result.table)
    tr.count("caratheodory.cover_cost.candidates", n)


def _count_gibbs(tr, idx, args, kwargs, result):
    tr.count("equilibrium.gibbs_ratio.floored", float(np.sum(result.floored)))
    tr.count("equilibrium.gibbs_ratio.cells",
             result.params["n_centers"] * len(result.orders))


_COUNTERS = {
    "pressure.estimate_pressure": _count_distinct("cli.estimate_pressure"),
    "equilibrium.evolve_average": _count_evolve,
    "caratheodory.cover_cost": _count_cover,
    "caratheodory.caratheodory_dim":
        lambda tr, i, a, k, res: tr.count("caratheodory.caratheodory_dim.trend_evals",
                                          len(res["evals"])),
    "caratheodory.reference_measure":
        lambda tr, i, a, k, res: tr.count("caratheodory.reference_measure.atoms",
                                          len(res.params)),
    "catalog.flow_time_one":
        lambda tr, i, a, k, res: tr.count("catalog.flow_time_one.points", _npoints(a[1])),
    "equilibrium.gibbs_ratio": _count_gibbs,
    "equilibrium.transitivity_probe":
        lambda tr, i, a, k, res: tr.count("equilibrium.transitivity_probe.found",
                                          res is not None),
}
