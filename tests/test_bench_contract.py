"""The benchmark in ``fdual_bench/`` runs against the package as it stands.

The benchmark reads package names that nothing else may call (its
tracer wraps ``optim1d.bisect_sign_change`` by name, for one). For each
workload this builds the operations of round 0 under the benchmark's
tracer, runs the last one (the whole round for ``cli_reports``, whose
last request compares its report with the round's first gap report)
and judges the output with the workload's own check.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fdual_bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        import spans
        import workloads

        yield spans, workloads
    finally:
        sys.path.remove(BENCH)


@pytest.mark.parametrize("name", ["gap_small", "gap_wide", "fit_mismatch", "cli_reports"])
def test_workload_runs_and_checks_under_the_tracer(bench, tmp_path, name):
    spans, workloads = bench
    wl = workloads.WORKLOADS[name](3, str(tmp_path))
    ops = wl.round_ops(0)
    if name != "cli_reports":
        ops = ops[-1:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for op in ops:
            assert op.check(op.run()) == (None, []), op.label
        tracer.layer_metrics(len(ops), 0)
    finally:
        tracer.uninstall()
        wl.end_round(0)
