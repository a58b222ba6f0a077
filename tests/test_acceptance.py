"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see the one-line
PASS/FAIL verdict (with runtime) per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from fdual.cli import main
from fdual.discriminator import LinearBall
from fdual.divergence import df_closed
from fdual.dual import restricted_div_dual
from fdual.estimators import ExpFamily, FitConfig, fit_gmm, fit_linear_fgan, fit_mle
from fdual.extreal import POS_INF, finite
from fdual.fgen import builtin, builtin_names, check_generator
from fdual.primal import restricted_div_primal
from fdual.space import FeatureMap, OutcomeSpace, make_dist
from fdual.verify import run_suite
from search_oracles import golden_max_batch

SEED = 2025


def _verdict(name: str, passed: bool, elapsed: float, limit: float, detail: str = ""):
    status = "PASS" if passed and elapsed < limit else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s / {limit:.0f}s)")
    assert passed, f"{name}: {detail}"
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeds {limit}s"


def test_criterion_1_generator_catalog():
    t0 = time.perf_counter()
    reports = {name: check_generator(builtin(name)) for name in builtin_names()}
    elapsed = time.perf_counter() - t0
    failing = {
        name: [e.name for e in rep.entries if not e.passed]
        for name, rep in reports.items()
        if not rep.ok
    }
    # The battery pins: f(1)=0 exact, Fenchel-Young slack >= -1e-9,
    # |sup_t(t - f*(t))| <= 1e-6, biconjugate deviation <= 1e-6.
    _verdict(
        "criterion 1 (generator catalog)",
        len(reports) == 6 and not failing,
        elapsed,
        1.0,
        f"6 builtins, failures: {failing or 'none'}",
    )


def test_criterion_2_variational_equivalence():
    t0 = time.perf_counter()
    res = run_suite("variational_full", seed=SEED, count=100)
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 2 (variational equivalence)",
        res.ok and res.worst_violation <= 1e-6,
        elapsed,
        2.0,
        f"{res.passes}/{res.instances} pairs, worst |var-closed| = {res.worst_violation:.2e}",
    )


def test_criterion_3_duality():
    t0 = time.perf_counter()
    res = run_suite("duality", seed=SEED, count=50)
    elapsed = time.perf_counter() - t0
    gaps = [r[key] for r in res.records for key in ("rel_gap", "rel_gap_inf")]
    _verdict(
        "criterion 3 (duality on 50 instances, at their radius and at R = inf)",
        res.ok and -1e-13 <= min(gaps) and max(gaps) <= 1e-3,
        elapsed,
        60.0,
        f"signed relative gaps from {min(gaps):.2e} to {max(gaps):.2e}",
    )


def test_criterion_4_moment_projection():
    t0 = time.perf_counter()
    res = run_suite("moment_projection", seed=SEED, count=25)
    elapsed = time.perf_counter() - t0
    feasible = [r for r in res.records if r["kind"] == "feasible"]
    infeasible = [r for r in res.records if r["kind"] == "infeasible"]
    worst_res = max(r["residual"] for r in feasible)
    worst_dev = max(r["value_dev"] for r in feasible)
    _verdict(
        "criterion 4 (moment projection, two routes)",
        res.ok and len(feasible) == 20 and len(infeasible) == 5,
        elapsed,
        10.0,
        f"20 feasible (residual {worst_res:.1e}, route dev {worst_dev:.1e}), "
        f"5 infeasible all infinite on both sides",
    )


def test_criterion_5_two_point_completeness():
    t0 = time.perf_counter()
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [0.5, 0.5])
    Q = make_dist(space, [0.75, 0.25])
    phi = FeatureMap(space, [[0.0, 1.0]])
    rep = restricted_div_primal(builtin("kl"), P, Q, LinearBall(phi, 2, POS_INF))
    closed = float(df_closed(builtin("kl"), P, Q).value)
    elapsed = time.perf_counter() - t0
    dev = abs(float(rep.value) - closed)
    ref_dev = abs(float(rep.value) - 0.143841)
    _verdict(
        "criterion 5 (two-point completeness)",
        dev <= 1e-6 and ref_dev <= 1e-6 + 5e-7,
        elapsed,
        1.0,
        f"restricted = {float(rep.value):.9f} vs direct sum {closed:.9f}",
    )


def test_criterion_6_sandwich_and_monotonicity():
    t0 = time.perf_counter()
    res = run_suite("sandwich", seed=SEED, count=12)
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 6 (sandwich, monotone in radius)",
        res.ok and res.worst_violation <= 1e-8,
        elapsed,
        10.0,
        f"{res.passes}/{res.instances}, worst violation {res.worst_violation:.2e}",
    )


def test_criterion_7_gmm_agreement():
    t0 = time.perf_counter()
    res = run_suite("gmm_agreement", seed=SEED, count=10)
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 7 (moment agreement, no mismatch)",
        res.ok and res.worst_violation <= 1e-4,
        elapsed,
        30.0,
        f"{res.passes}/{res.instances}, worst mean residual {res.worst_violation:.2e}",
    )


def test_criterion_8_r_functional():
    t0 = time.perf_counter()
    res = run_suite("r_functional", seed=SEED, count=100)
    elapsed = time.perf_counter() - t0
    mono_violations = sum(1 for r in res.records if r["monotone_viol"] > 1e-12)
    _verdict(
        "criterion 8 (intercept functional properties)",
        res.ok and mono_violations == 0,
        elapsed,
        2.0,
        f"{res.passes}/{res.instances}, worst {res.worst_violation:.2e}, "
        f"monotonicity violations {mono_violations}",
    )


def test_criterion_9_estimator_cross_check():
    t0 = time.perf_counter()
    space = OutcomeSpace.of_size(3)
    base = make_dist(space, [1, 1, 1])
    psi = FeatureMap(space, [[0.0, 1.0, 0.0]])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.2, 0.5, 0.3])
    radius = finite(1.0)
    cfg = FitConfig(seed=SEED)

    rep_f = fit_linear_fgan(fam, data, builtin("kl"), phi, radius, cfg)
    rep_m = fit_mle(fam, data)
    rep_g = fit_gmm(fam, data, phi, cfg)

    # Dual-form recomputation of the fitted adversarial objective.
    d_rep = restricted_div_dual(builtin("kl"), data, rep_f.q_star, LinearBall(phi, 2, radius))
    rel = abs(float(d_rep.value) - rep_f.objective) / max(1.0, abs(float(d_rep.value)))

    tv_mle = 0.5 * float(np.sum(np.abs(rep_f.q_star.p - rep_m.q_star.p)))
    tv_gmm = 0.5 * float(np.sum(np.abs(rep_f.q_star.p - rep_g.q_star.p)))

    # 1-D grid oracle at resolution 1e-4 over the tilt parameter; the
    # per-theta discriminator problem is solved by batched golden
    # section on the closed-form KL objective, an independent path.
    grid = np.arange(-1.0, 2.5 + 1e-12, 1e-4)
    logw = np.log(base.p)[None, :] + grid[:, None] * psi.values[0][None, :]
    logw -= logw.max(axis=1, keepdims=True)
    qth = np.exp(logw)
    qth /= qth.sum(axis=1, keepdims=True)
    m_hat = float(data.p @ phi.values[0])
    phi_row = phi.values[0]

    def batched_objective(avec):
        ex = np.exp(avec[:, None] * phi_row[None, :])
        return avec * m_hat - np.log(np.sum(qth * ex, axis=1))

    lo = np.full(grid.shape, -1.0)
    hi = np.full(grid.shape, 1.0)
    _, fgan_landscape = golden_max_batch(batched_objective, lo, hi, tol=1e-11)
    oracle_min = float(np.min(fgan_landscape))

    # MLE oracle on the same grid: KL(data || q_theta) minimized at ln 2.
    kl_landscape = -np.sum(data.p[None, :] * np.log(qth), axis=1) + float(
        np.sum(data.p[data.p > 0] * np.log(data.p[data.p > 0]))
    )
    mle_oracle_theta = float(grid[int(np.argmin(kl_landscape))])

    elapsed = time.perf_counter() - t0
    checks = {
        "dual-form agreement": rel <= 1e-3,
        "fit beats grid oracle": rep_f.objective <= oracle_min + 1e-6,
        "tv from mle": tv_mle >= 1e-3,
        "tv from gmm": tv_gmm >= 1e-3,
        "mle matches oracle argmin": abs(mle_oracle_theta - float(rep_m.theta[0])) <= 1e-3,
    }
    _verdict(
        "criterion 9 (estimator cross-check)",
        all(checks.values()),
        elapsed,
        30.0,
        f"rel gap {rel:.2e}, fgan obj {rep_f.objective:.6f} vs oracle {oracle_min:.6f}, "
        f"TV(mle) {tv_mle:.3f}, TV(gmm) {tv_gmm:.4f}, failed: "
        f"{[k for k, v in checks.items() if not v] or 'none'}",
    )


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    doc = {
        "space": {"labels": ["x1", "x2"]},
        "dists": {"P": [0.5, 0.5], "Q": [0.75, 0.25], "Pdata": [0.4, 0.6], "U": [0.5, 0.5]},
        "features": {"phi": [[0.0, 1.0]]},
        "generator": "kl",
        "discriminator": {"variant": "linear_ball", "features": "phi", "p": 2, "radius": 0.5},
        "family": {"variant": "exp_family", "base": "U", "features": "phi"},
        "data": "Pdata",
        "p": "P",
        "q": "Q",
        "fit_config": {"starts": 3, "max_iters": 40},
    }
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    identical = True
    for args in (
        ["gap", "--instance", str(inst), "--seed", "7"],
        ["fit", "--instance", str(inst), "--estimator", "gmm", "--seed", "7"],
        ["verify-suite", "--suite", "r_functional", "--seed", "7", "--count", "3"],
    ):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        identical = identical and out1.read_bytes() == out2.read_bytes()
    elapsed = time.perf_counter() - t0
    _verdict(
        "criterion 10 (byte-identical reports)",
        identical,
        elapsed,
        5.0,
        "gap, fit, verify-suite reports compared byte for byte",
    )
