"""Benchmark of the fdual package: certified gaps, mismatch fits, CLI reports.

Usage (from the repository root):

    python3 fdual_bench/run.py --workload gap_small --seed 1 --seconds 15 --trace 0

Runs the workload in whole rounds until the operations have taken at
least ``--seconds`` seconds, checks every output against independent
computations, and prints one JSON object as the last line of standard
output. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
the same rounds untraced and then traced, and reports per-layer metrics
and the tracing overhead. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

# One BLAS thread: the package does small dense algebra on which a
# multithreaded OpenBLAS adds scheduling noise and no speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
TAIL_MIN_BEYOND = 10


def import_program():
    """Import fdual from the checkout's src/ and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fdual", "__init__.py")):
        raise ImportError(f"no fdual package under {src}")
    sys.path.insert(0, src)
    import fdual

    if os.path.dirname(os.path.dirname(os.path.abspath(fdual.__file__))) != src:
        raise ImportError(f"fdual imported from {fdual.__file__}, not from {src}")
    import workloads

    return workloads


def probe_setup(workload, seed):
    """One set-up in a fresh interpreter: import plus instance generation."""
    t0 = time.perf_counter()
    workloads = import_program()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".fdual-bench-") as workdir:
        wl = workloads.WORKLOADS[workload](seed, workdir)
        wl.round_ops(0)
        elapsed = time.perf_counter() - t0
        wl.end_round(0)
    return elapsed


def measure_setup(workload, seed):
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


class Pass:
    """Latencies and verdicts of the operations of one measuring pass."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.report_bytes = 0
        self.rounds = 0

    @property
    def busy(self):
        return sum(self.latencies)


def run_op(op, result_pass, tracer):
    result_pass.attempted += 1
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer.span("op"):
                out = op.run()
        error = None
    except Exception as exc:  # the program failed this operation; count it
        out, error = None, f"{type(exc).__name__}: {exc}"
    result_pass.latencies.append(time.perf_counter() - t0)
    failure, problems = (error, []) if error else op.check(out)
    if failure:
        result_pass.failed += 1
        print(f"failed: {op.label}: {failure}", file=sys.stderr)
    for p in problems:
        result_pass.problems.append(f"{op.label}: {p}")
        print(f"incorrect: {op.label}: {p}", file=sys.stderr)
    if op.out_path and os.path.exists(op.out_path):
        result_pass.report_bytes += os.path.getsize(op.out_path)


def measure(wl, seconds=None, rounds=None, tracer=None):
    """Run whole rounds until ``seconds`` of operation time or ``rounds`` rounds."""
    result = Pass()
    while True:
        for op in wl.round_ops(result.rounds):
            run_op(op, result, tracer)
        wl.end_round(result.rounds)
        result.rounds += 1
        if rounds is not None and result.rounds >= rounds:
            return result
        if seconds is not None and result.busy >= seconds:
            return result


def tail(latencies):
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 4 * TAIL_MIN_BEYOND:
        return None
    pct = int(100 * (1 - TAIL_MIN_BEYOND / n))
    return pct, statistics.quantiles(latencies, n=100)[pct - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("gap_small", "gap_wide", "fit_mismatch", "cli_reports"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.probe_setup:
            print(repr(probe_setup(args.workload, args.seed)))
            return 0
        workloads = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2

    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".fdual-bench-") as workdir:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm = Pass()
        for op in wl.warmup_ops():
            run_op(op, warm, None)
        wl.end_round(-1)

        if not args.trace:
            main_pass = measure(wl, seconds=args.seconds)
            passes = [warm, main_pass]
        else:
            from spans import Tracer

            plain = measure(wl, seconds=args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                main_pass = measure(wl, rounds=plain.rounds, tracer=tracer)
            finally:
                tracer.uninstall()
            passes = [warm, plain, main_pass]

    ops = len(main_pass.latencies)
    completed = ops - main_pass.failed
    lat_ms = sorted(1e3 * x for x in main_pass.latencies)
    summary = (f"{args.workload} seed={args.seed}: {main_pass.rounds} rounds, {ops} ops, "
               f"{main_pass.busy:.2f} s busy, p50 {statistics.median(lat_ms):.3f} ms")
    tail_ms = tail(lat_ms)
    if tail_ms is not None:
        summary += f", p{tail_ms[0]} {tail_ms[1]:.3f} ms"
    print(summary)

    if args.trace:
        layer = tracer.layer_metrics(ops, main_pass.report_bytes)
        overhead = 100.0 * (main_pass.busy / plain.busy - 1.0)
        metrics = {name: metric(v, unit) for name, (v, unit) in layer.items()}
        metrics["trace.overhead_pct"] = metric(overhead, "%")
    else:
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "ops_per_s": metric(completed / main_pass.busy, "ops/s"),
            "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {
        "correct": not any(p.problems for p in passes),
        "attempted": sum(p.attempted for p in passes[1:]),
        "failed": sum(p.failed for p in passes[1:]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
