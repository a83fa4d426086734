"""ptskit benchmark: one workload, one seed, one JSON result line.

Run from the root of a ptskit checkout:

    python3 bench/run.py --workload church-scale --seed 1 --seconds 20 --trace 0

A closed loop with one client runs rounds of the workload's inputs, one
operation after another, for ``--seconds`` seconds (and at least the
workload's minimum number of rounds).  It checks every result against an
oracle that does not use ptskit, and prints the end-to-end metrics,
which are built from each input's best (lowest) time in the run: other
tenants of a shared machine inflate medians far more than best times.  ``--trace 1`` instead
runs a fixed pass of the workload under the span recorder in
``tracer.py`` and prints the per-layer metrics.  The last line of
standard output is always the result object; the lines before it give
one row per case and the run's seed, input digest and sample counts.

The benchmark never changes the recursion limit or the garbage
collector's settings, so the program runs as it would for a user.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 9  # set-up is timed this many times per run; the best (lowest) is reported
INTERPRETER_PROBES = 5
DEADLINE_S = 150  # the timed loop stops here whatever --seconds asks, to exit within 180 s
SPANS_DIR = ".bench_out"


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Put the checkout's ``src`` and this directory on the path; import ptskit."""
    if not os.path.isfile(os.path.join("src", "ptskit", "__init__.py")):
        _fail("run from the root of a ptskit checkout (no src/ptskit here)")
    if not os.path.isfile(os.path.join("tests", "generators.py")):
        _fail("tests/generators.py is missing")
    sys.path[:0] = [os.path.abspath("src"), BENCH_DIR]
    import workloads

    return workloads


def _run_op(case, failures: list) -> tuple[float, int]:
    """Time one call, then check it; returns (milliseconds, checks)."""
    from oracle import Mismatch

    t0 = time.perf_counter()
    try:
        result = case.run()
    except Exception as err:  # noqa: BLE001 - any exception (RecursionError too) is a failed op
        ms = (time.perf_counter() - t0) * 1000
        failures.append(f"{case.row}: {type(err).__name__}: {err}")
        return ms, 0
    ms = (time.perf_counter() - t0) * 1000
    try:
        return ms, case.check(result)
    except Mismatch as err:
        failures.append(f"{case.row}: {err}")
        return ms, 0


def _wall(argv: list[str], env=None) -> tuple[float, str]:
    """Wall seconds of one fresh process, and its output."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        _fail(f"{' '.join(argv[:3])}... exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return seconds, proc.stdout.strip()


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest of p50..p99.9 with at least ten samples above it, and its value.

    None when there are fewer than 20 samples, too few for even p50.
    """
    pcts = [p for p in (50, 90, 95, 99, 99.9) if len(samples) * (100 - p) >= 1000]
    if not pcts:
        return None
    return pcts[-1], statistics.quantiles(samples, n=1000, method="inclusive")[round(pcts[-1] * 10) - 1]


def timed_loop(wl, seconds: float, failures: list, probe) -> list[tuple[int, float, int]]:
    """The closed loop: (case index, ms, checks) per operation of its whole rounds.

    ``probe()``, one set-up probe, runs ``SETUP_PROBES`` times between
    operations, spread evenly over the run: the host has slow spells of
    a few seconds, and probes run back to back could all fall into one.
    If the deadline stops the loop before the workload's minimum number
    of rounds, that is a failure: the program has become too slow for
    the run to measure it as specified.
    """
    for idx in wl.warmup:
        _run_op(wl.cases[idx], failures)
    ops: list[tuple[int, float, int]] = []
    start = time.perf_counter()
    i = probed = 0
    while True:
        elapsed = time.perf_counter() - start
        if probed < SETUP_PROBES and elapsed >= probed * seconds / SETUP_PROBES:
            probe()
            probed += 1
            continue
        rounds, partial = divmod(len(ops), wl.round_len)
        if elapsed >= seconds and rounds >= wl.min_rounds and not partial:
            break
        if elapsed >= DEADLINE_S and ops:
            if rounds < wl.min_rounds:
                failures.append(f"deadline of {DEADLINE_S} s hit after {rounds} of {wl.min_rounds} rounds")
            # a cut round would leave some inputs out of the best times
            ops = ops[: rounds * wl.round_len] or ops
            break
        idx = wl.schedule[i % len(wl.schedule)]
        ms, checks = _run_op(wl.cases[idx], failures)
        ops.append((idx, ms, checks))
        i += 1
    for _ in range(probed, SETUP_PROBES):
        probe()
    return ops


def end_to_end(args, workloads) -> dict:
    wl = workloads.build(args.workload, args.seed)
    failures: list[str] = []
    setup_times = []

    def probe() -> None:
        seconds, digest = _wall([sys.executable, os.path.join(BENCH_DIR, "run.py"), "--probe-setup",
                                 "--workload", args.workload, "--seed", str(args.seed)])
        setup_times.append(seconds)
        if digest != wl.digest:
            failures.append(f"inputs differ between processes: {digest} vs {wl.digest}")

    ops = timed_loop(wl, args.seconds, failures, probe)

    # Each input's best (lowest) time over its repeats in this run.
    best: dict[int, float] = {}
    checks: dict[int, int] = {}
    samples: dict[str, list[float]] = {}
    for idx, ms, c in ops:
        best[idx] = min(ms, best.get(idx, ms))
        checks[idx] = c
        samples.setdefault(wl.cases[idx].row, []).append(ms)
    row_best: dict[str, list[float]] = {}
    for idx, ms in best.items():
        row_best.setdefault(wl.cases[idx].row, []).append(ms)
    row_value = {row: _geomean(v) for row, v in row_best.items()}
    if args.workload == "cli-mix":
        peak_kb = workloads.child_maxrss_kb  # the ptskit commands only, not the set-up probes
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Throughput counts only the inputs that produce check entries, over their own time.
    checked = [idx for idx in best if checks[idx]] or list(best)
    metrics = {
        "setup_s": (min(setup_times), "s"),
        "best_p50_ms": (statistics.median(best.values()), "ms"),
        "best_geomean_ms": (_geomean(row_value.values()), "ms"),
        "best_max_ms": (max(row_value.values()), "ms"),
        "checks_per_s": (1000 * sum(checks[i] for i in checked) / sum(best[i] for i in checked), "1/s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    for row, v in samples.items():
        _emit({"row": row, "inputs": len(row_best[row]), "samples": len(v), "best_ms": round(row_value[row], 4),
               "p50_ms": round(statistics.median(v), 4), "max_ms": round(max(v), 4)})
    times = [ms for _, ms, _ in ops]
    info = {
        "workload": args.workload, "seed": args.seed, "digest": wl.digest, "ops": len(ops),
        "rounds": len(ops) // wl.round_len, "op_p50_ms": round(statistics.median(times), 4),
    }
    tail = _tail(times)
    if tail:
        pct, value = tail
        info[f"op_p{pct:g}_ms"] = round(value, 4)
        info["samples_above_tail"] = sum(ms > value for ms in times)
    _emit({**info, "failures": failures[:5]})
    return _result(len(ops) + len(wl.warmup), failures, metrics)


def traced(args, workloads) -> dict:
    from tracer import Tracer

    wl = workloads.build(args.workload, args.seed, in_process=True)
    failures: list[str] = []
    run_pass = lambda: [_run_op(wl.cases[idx], failures) for idx in wl.trace_pass]  # noqa: E731

    run_pass()  # warm-up
    untraced_s = []
    for _ in range(3):
        t0 = time.perf_counter()
        run_pass()
        untraced_s.append(time.perf_counter() - t0)
    with Tracer() as tracer:
        t0 = time.perf_counter()
        run_pass()
        traced_s = time.perf_counter() - t0
    tracer.write_spans(os.path.join(SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))

    metrics = tracer.metrics()
    python = [sys.executable, "-c"]
    interp_s = [_wall(python + ["pass"])[0] for _ in range(INTERPRETER_PROBES)]
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    timed_import = "import time; t = time.perf_counter(); import ptskit; print(time.perf_counter() - t)"
    imports = [_wall(python + [timed_import], env)[1] for _ in range(INTERPRETER_PROBES)]
    metrics["cli.interpreter_ms"] = (1000 * statistics.median(interp_s), "ms")
    metrics["cli.import_ms"] = (1000 * statistics.median(float(x) for x in imports), "ms")
    base = statistics.median(untraced_s)
    metrics["trace.pass_ms"] = (1000 * base, "ms")
    metrics["trace.overhead_ms"] = (1000 * (traced_s - base), "ms")
    _emit({
        "workload": args.workload, "seed": args.seed, "digest": wl.digest, "trace_pass_ops": len(wl.trace_pass),
        "failures": failures[:5],
    })
    return _result(5 * len(wl.trace_pass), failures, metrics)


def _result(attempted: int, failures: list[str], metrics: dict) -> dict:
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _emit(obj) -> None:
    print(json.dumps(obj), flush=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help="only build the inputs and print their digest")
    args = ap.parse_args()
    workloads = _import_program()
    if args.workload not in workloads.NAMES:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    if args.probe_setup:
        print(workloads.build(args.workload, args.seed).digest)
        return
    _emit((traced if args.trace else end_to_end)(args, workloads))


if __name__ == "__main__":
    main()
