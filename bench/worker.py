"""One workload in one process: set-up, closed-loop pipeline calls, checks.

Started by run.py with BLAS threads pinned in the environment.  Prints one
JSON object on its last stdout line.  With --setup-only it times only the
set-up (import, load_config, get_system) and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS, expected  # noqa: E402


def write_configs(calls, work):
    paths = {}
    for call in calls:
        paths[call.label] = os.path.join(work, f"{call.label}.ini")
        with open(paths[call.label], "w") as f:
            f.write(call.ini())
    return paths


def setup(calls, paths):
    """Import the package and load each config; returns (cli module, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import eqmeas  # noqa: F401
    from eqmeas import catalog, cli
    for call in calls:
        cfg = cli.load_config(paths[call.label])
        catalog.get_system(cfg["system"])
    return cli, time.perf_counter() - t0


def blas_info():
    """Python, numpy and BLAS versions, and the BLAS thread count read back
    from the loaded library."""
    import ctypes
    import platform

    import numpy

    libs = set()
    with open("/proc/self/maps") as f:
        for line in f:
            path = line.split()[-1]
            if "blas" in path and path.endswith(".so"):
                libs.add(path)
    threads = None
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None and threads is None:
                fn.restype = ctypes.c_int
                threads = fn()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_library": sorted(libs), "blas_threads": threads}


def digest(out):
    """sha256 of every output file, by name (empty when nothing was written)."""
    if not os.path.isdir(out):
        return {}
    out_files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as f:
            out_files[name] = hashlib.sha256(f.read()).hexdigest()
    return out_files


def run_call(cli, call, ini, out, seed):
    """One CLI call; returns (seconds, exit code, captured stdout)."""
    shutil.rmtree(out, ignore_errors=True)
    buf = io.StringIO()
    argv = [call.pipeline, "--config", ini, "--out", out, "--check",
            "--seed", str(seed)]
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
    return dt, rc, buf.getvalue()


def judge(call, seed, rc, out):
    """Compare verdicts and exit code with the expectation.

    Returns (checks attempted, checks failed, problems).  A pipeline that
    wrote no summary counts every expected check as failed.  With --check
    the exit code is 2 when a check fails and 0 otherwise.
    """
    want = expected(call, seed)
    got = {}
    path = os.path.join(out, "summary.json")
    if os.path.exists(path):
        with open(path) as f:
            for c in json.load(f)["checks"]:
                got[(c["pipeline"], c["name"])] = bool(c["passed"])
    problems = []
    if set(got) != set(want):
        problems.append(f"checks {sorted(got)}, expected {sorted(want)}")
    for key, ok in got.items():
        if want.get(key) is not None and ok != want[key]:
            problems.append(f"{'/'.join(key)}: {'ok' if ok else 'FAIL'}, "
                            f"expected {'ok' if want[key] else 'FAIL'}")
    want_rc = 0 if all(got.get(k, v) is not False for k, v in want.items()) else 2
    if rc != want_rc:
        problems.append(f"exit {rc}, expected {want_rc}")
    failed = sum(not got.get(key, False) for key in want)
    return len(want), failed, problems


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    calls = WORKLOADS[args.workload]
    paths = write_configs(calls, args.work)
    cli, setup_s = setup(calls, paths)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    # In a traced run, iterations alternate untraced / traced (odd ids are
    # traced), so the overhead and the output identity are measured side by
    # side.  Every iteration must reproduce the first one's outputs.
    walls = {0: [], 1: []}
    traced_walls = {}
    reference = {}
    attempted = failed_calls = checks = checks_failed = 0
    problems = []
    verdicts = []
    summaries = {}
    start = time.perf_counter()
    it = 0
    while True:
        traced = bool(tracer) and it % 2 == 1
        if traced:
            tracer.run_id = it
            tracer.install()
        wall = 0.0
        try:
            for call in calls:
                out = os.path.join(args.work, call.label)
                dt, rc, text = run_call(cli, call, paths[call.label], out, args.seed)
                wall += dt
                attempted += 1
                n, bad, why = judge(call, args.seed, rc, out)
                if rc not in (0, 2):
                    why.append(f"CLI output: {text.strip()[-300:]}")
                files = digest(out)
                if call.label not in reference:
                    reference[call.label] = files
                    verdicts += [f"{call.label} {line}" for line in text.splitlines()
                                 if line.startswith("[")]
                    if "summary.json" in files:
                        with open(os.path.join(out, "summary.json")) as f:
                            summaries[call.label] = json.load(f)
                elif files != reference[call.label]:
                    why.append("outputs differ from the first iteration"
                               + (" (traced vs untraced)" if tracer else ""))
                checks += n
                checks_failed += bad
                if why:
                    failed_calls += 1
                    problems += [f"{call.label}: {w}" for w in why]
        finally:
            if traced:
                tracer.uninstall()
        walls[int(traced)].append(wall)
        if traced:
            traced_walls[it] = wall
        it += 1
        elapsed = time.perf_counter() - start
        per_iter = elapsed / it
        if not tracer and it >= 2 and elapsed + per_iter > args.seconds:
            break
        if tracer and it % 2 == 0 and elapsed + 2 * per_iter > args.seconds:
            break

    result = {
        "env": blas_info(),
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "iterations": it,
        "walls": walls,
        "attempted": attempted,
        "failed": failed_calls,
        "checks": checks,
        "checks_failed": checks_failed,
        "problems": problems,
        "verdicts": verdicts,
        "summaries": summaries,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        from tracer import MODULES, median_metrics
        per_run = tracer.per_run()
        for run, m in per_run.items():
            m["trace.wall_s"] = traced_walls[run]
            m["trace.layer_coverage"] = sum(
                m[f"layer.{mod}.self_s"] for mod in MODULES) / traced_walls[run]
        result["layers"] = median_metrics(per_run)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
