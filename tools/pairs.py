"""Alternating pairs of bench/run.py: a git ref against the working tree.

    python3 tools/pairs.py --workload slowprod-control --pairs 10 --seed 0 --seconds 30

Run it from anywhere inside the repository.  Both sides run from fresh
copies in one temporary directory: the ref (default HEAD) is extracted with
`git archive`, and the working tree is copied from the files git tracks or
would track (`git ls-files --cached --others --exclude-standard`), so
neither side runs in the repository itself and nothing is written to .git.
Every file of both copies then gets one modification time (same_times):
with the archive's commit dates on one side and copy times on the other,
the worker's peak RSS read about 1% apart on identical sources.
Each pair runs the two sides back to back with the same seed and
--seconds, alternating which side goes first.  On SIGTERM, SIGINT or SIGHUP
the running benchmark and its worker are killed and the temporary directory
is removed (see Scratch).

For every end-to-end metric in the working tree's BENCHMARK.json it prints
every run, each side's median and quartiles, and the change's win count
(ties count for neither side).  A metric is marked "gain" when the change
wins at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the distance between the ref's quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time


class Scratch:
    """A temporary directory and the commands run for it, cleaned up on any exit.

    Used as `with Scratch(prefix) as scratch:`; scratch.path is the
    directory.  scratch.run starts each command in its own session, so it
    and its children (bench/run.py's worker, say) form one process group.
    On SIGTERM, SIGINT or SIGHUP the running command's group is killed, the
    directory is removed and the process exits with status 128 + the signal.
    """

    SIGNALS = (signal.SIGTERM, signal.SIGINT, signal.SIGHUP)

    def __init__(self, prefix):
        self.prefix = prefix

    def __enter__(self):
        self._handlers = {s: signal.signal(s, self._stop) for s in self.SIGNALS}
        self.path = tempfile.mkdtemp(prefix=self.prefix)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        for s, handler in self._handlers.items():
            signal.signal(s, handler)

    @staticmethod
    def _stop(signum, frame):
        raise SystemExit(128 + signum)

    def run(self, cmd, **kwargs):
        """subprocess.run(cmd, capture_output=True, **kwargs), in a new session
        whose whole process group is killed if this call is interrupted."""
        proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, **kwargs)
        try:
            out, err = proc.communicate()
        finally:
            if proc.returncode is None:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def git(repo, *args):
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          capture_output=True).stdout


def extract_ref(repo, ref, dest):
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git(repo, "archive", ref), check=True)


def copy_working_tree(repo, dest):
    listed = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split(b"\0")):
        rel = os.fsdecode(name)
        src = os.path.join(repo, rel)
        if os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def same_times(*roots):
    """Give every file and directory under roots one access and modification time."""
    stamp = int(time.time())
    for root in roots:
        for top, dirs, files in os.walk(root):
            for name in dirs + files:
                os.utime(os.path.join(top, name), (stamp, stamp), follow_symlinks=False)


def side_dirs(root):
    """{side: directory} of the ref's and the working tree's copies under root.
    The names have one length: the worker's peak RSS grows with its directory's
    path, by 0.3-0.45 MB from "ref" to "change", about 1% of the reading."""
    return {"ref": os.path.join(root, "parent"), "change": os.path.join(root, "change")}


def bench(scratch, checkout, args):
    """One bench/run.py run in checkout: (correct, {metric: value})."""
    cmd = [sys.executable, "bench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = scratch.run(cmd, cwd=checkout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    res = json.loads(lines[-1])
    return res["correct"], {k: m["value"] for k, m in res["metrics"].items()}


def spread(values):
    """(median, distance between the quartiles, printed form) of values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q3 - q1, f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--ref", default="HEAD")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    repo = os.fsdecode(git(os.getcwd(), "rev-parse", "--show-toplevel").strip())
    sha = os.fsdecode(git(repo, "rev-parse", args.ref).strip())
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    runs = {"ref": [], "change": []}
    with Scratch("pairs-") as scratch:
        sides = side_dirs(scratch.path)
        extract_ref(repo, sha, sides["ref"])
        copy_working_tree(repo, sides["change"])
        same_times(*sides.values())
        print(f"# {args.workload}: ref {args.ref} ({sha[:12]}) against the working tree, "
              f"{args.pairs} pairs, seed {args.seed}, --seconds {args.seconds:g}")
        for i in range(args.pairs):
            order = ("ref", "change") if i % 2 == 0 else ("change", "ref")
            for side in order:
                correct, values = bench(scratch, sides[side], args)
                runs[side].append(values)
                shown = " ".join(f"{m['name']}={values[m['name']]:.6g}" for m in metrics)
                print(f"pair {i + 1:2d} {side:6s} correct={correct} {shown}", flush=True)
                if not correct:
                    print(f"# {side} run of pair {i + 1} is not correct")

    print(f"\n{'metric':16s} {'better':6s} {'ref median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} wins   verdict")
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        ref = [r[name] for r in runs["ref"]]
        new = [r[name] for r in runs["change"]]
        wins = sum((b < a) if lower else (b > a) for a, b in zip(ref, new))
        (rmed, riqr, rtext), (cmed, _, ctext) = spread(ref), spread(new)
        gain = rmed - cmed if lower else cmed - rmed
        verdict = "gain" if wins >= 0.9 * args.pairs and gain > riqr else "-"
        change = f" ({100 * (cmed / rmed - 1):+.1f}%)" if rmed else ""
        print(f"{name:16s} {m['better']:6s} {rtext:34s} {ctext:34s} "
              f"{wins:2d}/{args.pairs:<3d} {verdict}{change}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
