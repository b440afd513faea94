"""Byte-identical CLI outputs: a git ref against the working tree.

    python3 tools/same_bytes.py --ref HEAD

Run it from anywhere inside the repository.  Both sides run from fresh
copies in one temporary directory, made as tools/pairs.py makes them (the
ref by `git archive`, the working tree from the files git tracks or would
track), so nothing is written to .git or bench/.  Every case below is one
`eqmeas <pipeline> --check --seed N` call on the same INI file on both
sides; a case is identical when the exit codes, stdout and every output
file (the pipeline CSVs and summary.json) match byte for byte.  When only
summary.json differs, the line also names its largest relative change
among the numbers at the same key path, |a - b| / max(|a|, |b|): a change
that only rounds shows as one of order 1e-12, and a key or list item that
one side lacks, or a number that the other side holds as null or text,
shows as inf.  When other files differ too, it names the pipelines.<name>
entries of summary.json whose numbers changed.  The slowprod-control and
cdim-cos configs are read from the working tree's bench/workloads.py,
imported in its copy.  The default slowprod fullsuites
take about 2.5 s (zero potential) and 3.5 s (cos) a side.  A signal stops
it as it stops tools/pairs.py: no temporary directory or CLI process is
left behind.

Exit status: 0 when every case is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import os
import sys

from pairs import Scratch, copy_working_tree, extract_ref, git, side_dirs


def _workloads(checkout):
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(checkout, "bench", "workloads.py"))
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    spec.loader.exec_module(mod)
    return mod


def cases(checkout):
    """(name, bench Call, seed) of every case; the Call gives the pipeline and INI."""
    wl = _workloads(checkout)

    def call(name, pipeline, system, config, seed=0):
        return name, wl.Call(name, pipeline, system, config, ()), seed

    cdim = wl.WORKLOADS["cdim-cos"][0]
    return [
        *(call(f"{s}.fullsuite.seed{seed}", "fullsuite", s, {}, seed)
          for s in ("cat", "skew") for seed in (0, 11)),
        *(call(f"slowprod-control.{p}.seed{seed}", p, "slowprod", wl.SLOWPROD_CONFIG, seed)
          for p in ("gibbs", "probe") for seed in (0, 1, 5)),
        call("cat.cos0.5.fullsuite", "fullsuite", "cat",
             {"potential": "cos", "amplitude": 0.5}),
        call("skew.cos.fullsuite", "fullsuite", "skew", {"potential": "cos"}),
        # a zero coefficient is still a mode, so amplitude 0 takes the summed
        # paths and the fiber system's leaf sums; its bytes equal the zero
        # potential's, so TestPotentialTable pins that it is not constant
        call("skew.cos0.fullsuite", "fullsuite", "skew", {"potential": "cos", "amplitude": 0}),
        call("cat.geom0.5.fullsuite", "fullsuite", "cat", {"potential": "geom", "q": 0.5}),
        call("skew.const0.3.fullsuite", "fullsuite", "skew",
             {"potential": "const", "const_value": 0.3}),
        call("cdim-cos", cdim.pipeline, cdim.system, cdim.config),
        call("slowprod.fullsuite", "fullsuite", "slowprod", {}),
        # the leaf sums of a base-only potential on the 4-d system
        call("slowprod.cos.fullsuite", "fullsuite", "slowprod", {"potential": "cos"}),
        # a 64 x 64 grid: 4,096 base-cell sums a step
        call("cat.grid64.evolve", "evolve", "cat", {"grid": 64}),
        # constant-potential evolves whose first steps count atoms by runs: cell
        # edges from the table, a net thinned to every 149th of 148,839,840
        # atoms, and 200 steps, most of them atom by atom
        call("cat.grid7x5.evolve", "evolve", "cat", {"grid": "7, 5"}),
        call("cat.order16.evolve", "evolve", "cat",
             {"evolve_order": 16, "evolve_leaf_radius": 2}),
        call("skew.steps200.evolve", "evolve", "skew", {"steps": 200}),
        # one probe step per block
        call("skew.samples1e4.probe", "probe", "skew",
             {"n_samples": 10000, "birkhoff_steps": 100}),
        # Gibbs groups of 32 centres whose cloud points leave at different
        # orders, with S_n phi summed along the centre rows
        call("skew.cos.centres32.gibbs", "gibbs", "skew",
             {"potential": "cos", "n_mc": 256, "n_centers": 64}),
        # the default slowprod pair: its fiber first comes within delta at k = 40
        call("slowprod.kmax64.probe", "probe", "slowprod", {"k_max": 64}),
        # rectangles across the wrap seam and over half the torus: disintegrate
        # refines only the bins that can meet them, on either wrap branch
        call("skew.seam.disintegrate", "disintegrate", "skew",
             {"base_y": "0.99, 0.01, 0.5", "rect_du": 0.45, "rect_dcs": 0.45}),
        call("cat.rect0.5.disintegrate", "disintegrate", "cat",
             {"rect_du": 0.5, "rect_dcs": 0.5}),
    ]


def run_case(scratch, checkout, work, case):
    """(exit code, stdout, {file name: bytes}) of one case in checkout."""
    name, spec, seed = case
    ini = os.path.join(work, f"{name}.ini")
    with open(ini, "w") as f:
        f.write(spec.ini())
    out = os.path.join(work, name)
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = scratch.run([sys.executable, "-m", "eqmeas.cli", spec.pipeline, "--config", ini,
                        "--out", out, "--check", "--seed", str(seed)], cwd=work, env=env)
    files = {}
    if os.path.isdir(out):
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as f:
                files[fname] = f.read()
    return proc.returncode, proc.stdout, files


def diff(a, b):
    """Names of what differs between two run_case results."""
    (code_a, out_a, files_a), (code_b, out_b, files_b) = a, b
    bad = [] if code_a == code_b else [f"exit {code_a} vs {code_b}"]
    bad += [] if out_a == out_b else ["stdout"]
    bad += [f for f in sorted(files_a.keys() | files_b.keys())
            if files_a.get(f) != files_b.get(f)]
    return bad


ABSENT = object()  # the value at a key or list index that one side lacks


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def largest_change(a, b, path=""):
    """(relative change, key path) of the numbers of two parsed JSON values
    that differ most; (0.0, "") when none differs.  A number against a
    non-number (null, say), and a key or list item on one side only, are an
    infinite change at their path."""
    if isinstance(a, dict) and isinstance(b, dict):
        pairs = [(a.get(k, ABSENT), b.get(k, ABSENT), f"{path}.{k}" if path else k)
                 for k in a.keys() | b.keys()]
    elif isinstance(a, list) and isinstance(b, list):
        pairs = [(x, y, f"{path}[{i}]")
                 for i, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=ABSENT))]
    elif _number(a) and _number(b):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, ""
        rel = abs(a - b) / max(abs(a), abs(b))
        return (rel if math.isfinite(rel) else math.inf), path  # nan or inf on one side
    elif a is ABSENT or b is ABSENT or _number(a) or _number(b):
        return math.inf, path
    else:
        return 0.0, ""
    return max((largest_change(x, y, p) for x, y, p in sorted(pairs, key=lambda t: t[2])),
               default=(0.0, ""), key=lambda t: t[0])


def moved_pipelines(a, b):
    """The pipelines.<name> entries of two parsed summaries whose numbers
    differ, or that one side lacks."""
    pa, pb = a.get("pipelines", {}), b.get("pipelines", {})
    return [f"pipelines.{name}" for name in sorted(pa.keys() | pb.keys())
            if largest_change(pa.get(name, ABSENT), pb.get(name, ABSENT))[0]]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ref", default="HEAD")
    args = ap.parse_args(argv)
    repo = os.fsdecode(git(os.getcwd(), "rev-parse", "--show-toplevel").strip())
    sha = os.fsdecode(git(repo, "rev-parse", args.ref).strip())
    differ = 0
    with Scratch("same-bytes-") as scratch:
        tmp = scratch.path
        sides = side_dirs(tmp)
        extract_ref(repo, sha, sides["ref"])
        copy_working_tree(repo, sides["change"])
        print(f"# ref {args.ref} ({sha[:12]}) against the working tree")
        todo = cases(sides["change"])  # its bench/workloads.py, imported in the copy
        for case in todo:
            got = {}
            for side, checkout in sides.items():
                work = os.path.join(tmp, f"{side}-out")
                os.makedirs(work, exist_ok=True)
                got[side] = run_case(scratch, checkout, work, case)
            bad = diff(got["ref"], got["change"])
            differ += bool(bad)
            note = ""
            if "summary.json" in bad:
                a, b = (json.loads(got[side][2]["summary.json"]) for side in sides)
                rel, path = largest_change(a, b)
                if bad != ["summary.json"]:
                    note = "; numbers changed in " + (", ".join(moved_pipelines(a, b))
                                                      or "no pipelines entry")
                elif path:
                    note = f"; largest relative change {rel:.1e} at {path}"
                else:
                    note = "; no number changed"
            print(f"{case[0]:36s} exit {got['change'][0]}  "
                  f"{'identical' if not bad else 'DIFFERS: ' + ', '.join(bad)}{note}", flush=True)
    print(f"# {differ} of {len(todo)} cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main())
