"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 --seconds 25 [--workload NAME ...] [--out FILE]

For every workload and end-to-end metric this prints the median of the
runs and the distance between their first and third quartiles as a
share of that median (``statistics.quantiles(values, n=4)``).  It then
makes one traced run per workload on the first seed.  With ``--out`` the
runs, the summary and the traced per-layer metrics are also written as
JSON.  ``baseline.json`` holds two such outputs of the same code: the
first at its top level, the second (without the traced runs' metrics)
under ``second_set``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json"), encoding="utf-8") as _fh:
    WORKLOADS = tuple(w["name"] for w in json.load(_fh)["workloads"])


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, list[dict]]:
    """One benchmark run: its result object and the detail lines before it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[:-1]


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--out")
    args = ap.parse_args()
    seeds = list(range(1, args.seeds + 1))
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        runs = []
        for seed in seeds:
            result, details = run_once(workload, seed, args.seconds)
            info = details[-1]
            runs.append({"seed": seed, "digest": info["digest"], "ops": info["ops"],
                         "correct": result["correct"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
        names = runs[0]["metrics"]
        summary = {name: summarize([r["metrics"][name] for r in runs]) for name in names}
        for name, s in summary.items():
            print(f"{workload:13} {name:16} median {s['median']:12.4f}  spread {s['spread']:.3f}", flush=True)
        traced, _ = run_once(workload, seeds[0], args.seconds, trace=1)
        per_layer = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = {"summary": summary, "runs": runs, "per_layer_seed": seeds[0],
                                         "per_layer_correct": traced["correct"], "per_layer": per_layer}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
