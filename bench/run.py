"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload fullsuite-c1 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout (the package is imported from
src/).  The workload runs in its own worker process with BLAS threads
pinned to 1; set-up is timed in that process and in a few extra set-up
processes.  Outputs go to a temporary directory under .bench_tmp/ that is
removed at the end.  The last stdout line is the JSON result:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 8          # extra set-up-only processes per run
DEADLINE_S = 170.0        # the whole run, set-up probes included
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
NOT_MEASURED = 1.0        # value of a quality metric a workload does not produce

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "check_fail_frac": "ratio",
                    "peak_rss_mb": "MB", "dim_gap": "nats", "tv_to_uniform": "ratio"}


def layer_unit(name):
    for suffix, unit in (("_s", "s"), ("ns_per_point", "ns"), ("us_per_call", "us"),
                         ("_ratio", "ratio"), ("_frac", "ratio"),
                         ("coverage", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def run_worker(args, env, work, deadline, setup_only=False):
    """Run worker.py and return its JSON result (raises on failure)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if setup_only:
        cmd.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quality(res, pipeline, key):
    """Largest value of summary[pipelines][pipeline][key] over the workload's calls."""
    vals = [s["pipelines"][pipeline][key] for s in res["summaries"].values()
            if pipeline in s["pipelines"]]
    return max(vals) if vals else None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    loadavg = os.getloadavg()[0]
    if not os.path.isfile(os.path.join(ROOT, "src", "eqmeas", "cli.py")):
        print(f"error: no eqmeas source under {ROOT}/src", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_ENV})
    env.pop("PYTHONPATH", None)
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        res = run_worker(args, env, work, deadline)
        setups = [res["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, env, work, deadline,
                                         setup_only=True)["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(tmp_root):
            os.rmdir(tmp_root)

    info = dict(res["env"], nproc=os.cpu_count(), loadavg_1m_at_start=loadavg,
                git_sha=git_sha())
    print(f"# env {json.dumps(info, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {res['iterations']} "
          f"iterations, {res['attempted']} pipeline calls, closed loop, 1 client")
    for line in res["verdicts"]:
        print(f"# verdict seed={args.seed} {line}")
    for line in res["problems"]:
        print(f"# PROBLEM {line}")
    # every iteration reproduces the first one's outputs, so per-iteration
    # check counts do not depend on how many iterations fit in the run
    checks = res["checks"] / res["iterations"]
    checks_failed = res["checks_failed"] / res["iterations"]
    print(f"# checks failed per iteration: {checks_failed:g} of {checks:g}; "
          f"those not listed as PROBLEM are expected (README.md)")

    walls = res["walls"]
    if args.trace:
        traced, plain = walls["1"], walls["0"]
        layers = dict(res["layers"])
        layers["trace.untraced_wall_s"] = statistics.median(plain)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        print(f"# traced wall_s {traced}, untraced wall_s {plain}; overhead "
              f"{layers['trace.overhead_s']:.4f} s; layer self times cover "
              f"{100 * layers['trace.layer_coverage']:.2f}% of traced wall_s")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(layers.items())}
    else:
        values = {
            "wall_s": statistics.median(walls["0"]),
            "setup_s": statistics.median(setups),
            "check_fail_frac": (checks_failed + 1) / (checks + 1),
            "peak_rss_mb": res["peak_rss_mb"],
            "dim_gap": quality(res, "cdim", "gap"),
            "tv_to_uniform": quality(res, "evolve", "tv_to_uniform"),
        }
        print(f"# wall_s samples {walls['0']} (n={len(walls['0'])}); "
              f"setup_s samples {setups} (n={len(setups)})")
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            value = values[name]
            if value is None:
                print(f"# {name}: not measured on {args.workload}, "
                      f"reported as {NOT_MEASURED}")
                value = NOT_MEASURED
            metrics[name] = {"value": value, "unit": unit}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not res["problems"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
