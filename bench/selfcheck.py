"""Determinism self-check of the benchmark.

    python3 bench/selfcheck.py [--seed N]

For every workload: two traced runs with the same seed must report
identical counts (every per-layer metric whose unit is ``count``), and
two different seeds must give different input digests while one seed
always gives the same digest.  Exits 1 and names the difference if any
check fails.

``eq.calls`` is the one count allowed to differ, by at most 2%.  Tuple
comparison skips ``__eq__`` when both sides are the same object, and
which of two equal terms a set keeps depends on its iteration order,
which string hash randomization changes from process to process.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from spread import BENCH_DIR, WORKLOADS, run_once


def digest(workload: str, seed: int) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--probe-setup", "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=True,
    )
    return proc.stdout.strip()


VARIES = {"eq.calls": 0.02}


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    problems = []
    for workload in WORKLOADS:
        first, _ = run_once(workload, args.seed, 1, trace=1)
        second, _ = run_once(workload, args.seed, 1, trace=1)
        a, b = counts(first), counts(second)
        differ = sorted(k for k in a if abs(a[k] - b[k]) > VARIES.get(k, 0) * max(a[k], b[k]))
        if differ or not (first["correct"] and second["correct"]):
            problems.append(f"{workload}: traced counts differ on {differ} or a run was incorrect")
        d1, d1_again, d2 = digest(workload, args.seed), digest(workload, args.seed), digest(workload, args.seed + 1)
        if d1 != d1_again or d1 == d2:
            problems.append(f"{workload}: digests seed {args.seed} {d1}/{d1_again}, seed {args.seed + 1} {d2}")
        eq = f"eq.calls {a['eq.calls']}/{b['eq.calls']}"
        print(f"{workload:13} {len(a)} counts repeat: {not differ} ({eq}); digests {d1} (again {d1_again}), {d2}", flush=True)
    for p in problems:
        print("FAIL", p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
