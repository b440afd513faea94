"""Every benchmark call's verdicts at every scanned seed, against bench/workloads.py.

    python3 tools/seed_verdicts.py

Run it from anywhere inside the repository.  Each call of each workload in
bench/workloads.py runs in this process, as bench/worker.py runs it
(`eqmeas <pipeline> --config <ini> --out <dir> --check --seed N`), at every
seed N of SCANNED_SEEDS (0-99), with its INI file and outputs in one
temporary directory.  bench/worker.py's judge compares the verdicts in
summary.json and the exit code with `expected(call, seed)`; every mismatch
is printed with its seed and call.  The package is imported from the
working tree's src/.  bench/ is only read: no bytecode is written there.
A change that moves output bytes runs it to show that no judged verdict
moved with them; all calls take about 30 s here.

Exit status: 0 when every judged verdict and exit code matches, 1 otherwise.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # nothing written under bench/
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

from worker import judge, run_call, write_configs  # noqa: E402
from workloads import SCANNED_SEEDS, WORKLOADS  # noqa: E402

from eqmeas import cli  # noqa: E402


def main():
    calls = [call for workload in WORKLOADS.values() for call in workload]
    mismatches, t0 = 0, time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="seed_verdicts_") as work:
        paths = write_configs(calls, work)
        for seed in SCANNED_SEEDS:
            for call in calls:
                out = os.path.join(work, call.label)
                _, rc, text = run_call(cli, call, paths[call.label], out, seed)
                problems = judge(call, seed, rc, out)[2]
                if rc not in (0, 2):
                    problems.append(f"CLI output: {text.strip()[-300:]}")
                for problem in problems:
                    print(f"seed {seed} {call.label}: {problem}")
                mismatches += len(problems)
    runs = len(calls) * len(SCANNED_SEEDS)
    print(f"{runs} calls at seeds {SCANNED_SEEDS.start}-{SCANNED_SEEDS.stop - 1} in "
          f"{time.perf_counter() - t0:.0f} s: {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
