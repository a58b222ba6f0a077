"""Brute-force oracles and seeded verification suites.

The oracles take deliberately different code paths from the production
solvers (dense grids with certified Lipschitz slack instead of gradient
methods), so agreement between the two is evidence rather than
tautology. ``run_suite`` packages the invariant batteries as named,
re-runnable, seed-deterministic checks; the acceptance tests and the
command line both call through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminator import LinearBall
from .divergence import df_closed, df_variational_full, r_functional, r_functional_numeric
from .dual import duality_gap, moment_projection
from .errors import TooManyFeatures, UnknownSuite, ValidationError
from .estimators import FullSimplex, fit_linear_fgan
from .fgen import builtin, builtin_names, check_generator
from .primal import restricted_div_primal
from .space import (
    FeatureMap,
    FunctionOnSpace,
    OutcomeSpace,
    absolutely_continuous,
    feature_means,
    make_dist,
    random_instance,
)

__all__ = [
    "BruteForceResult",
    "SuiteResult",
    "SUITE_NAMES",
    "brute_force_primal",
    "duality_instance",
    "run_suite",
]

DUALITY_GENERATORS = ("kl", "pearson_chi2", "squared_hellinger", "js_gan")


@dataclass(frozen=True)
class BruteForceResult:
    """Grid maximum plus a certified error interval."""

    value: float
    error_bound: float
    grid_points: int


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    instances: int
    passes: int
    worst_violation: float
    records: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return self.passes == self.instances


def brute_force_primal(g, P, Q, spec: LinearBall, resolution: float) -> BruteForceResult:
    """Grid-search oracle for the ball-restricted supremum, k <= 2.

    Evaluates the intercept-reduced objective on a grid of coefficient
    vectors covering the ball and returns the maximum. The objective is
    Lipschitz with constant at most twice the largest feature-vector
    norm, so the true supremum exceeds the grid value by at most
    ``L * resolution * sqrt(k) / 2``, reported as the error bound.
    """
    if spec.phi.k > 2:
        raise TooManyFeatures("brute force supports at most two features")
    radius = spec.radius
    if math.isinf(radius):
        raise ValidationError("brute force needs a finite radius")
    m_p = feature_means(P, spec.phi)
    axis = np.arange(-radius, radius + resolution / 2, resolution)
    if spec.phi.k == 1:
        grid = axis[:, None]
    else:
        aa, bb = np.meshgrid(axis, axis)
        grid = np.stack([aa.ravel(), bb.ravel()], axis=1)
        if math.isinf(spec.p):
            keep = np.ones(grid.shape[0], dtype=bool)
        elif spec.p == 1.0:
            keep = np.abs(grid).sum(axis=1) <= radius
        else:
            keep = np.linalg.norm(grid, ord=spec.p, axis=1) <= radius
        grid = grid[keep]
    best = -math.inf
    for a in grid:
        h = FunctionOnSpace(P.space, a @ spec.phi.values)
        r_val, _ = r_functional(g, Q, h)
        best = max(best, float(a @ m_p) - r_val)
    lipschitz = 2.0 * float(np.max(np.linalg.norm(spec.phi.values, axis=0)))
    bound = lipschitz * resolution * math.sqrt(spec.phi.k) / 2.0
    return BruteForceResult(value=best, error_bound=bound, grid_points=grid.shape[0])


def duality_instance(seed: int, i: int):
    """Instance i of the seeded duality battery.

    Mixes all four smooth generators, radii {0.1, 1, 10}, k in {1,2,3},
    n in 2..12, and every fifth instance drops the last outcome from
    the support of Q.
    """
    n = 2 + (i % 11)
    k = 1 + (i % 3)
    radius = (0.1, 1.0, 10.0)[i % 3]
    gen_name = DUALITY_GENERATORS[i % 4]
    P, Q, phi = random_instance(seed * 10007 + i, n, k)
    if i % 5 == 4 and n >= 3:
        masses = Q.p.copy()
        masses[-1] = 0.0
        Q = make_dist(Q.space, masses)
    return gen_name, P, Q, phi, radius


def run_suite(name: str, seed: int = 0, count: int = 0) -> SuiteResult:
    """Execute a named invariant battery on seeded random instances.

    Each battery checks instance ``i`` and returns whether it passed, its
    violation and its record; the suite's ``worst_violation`` is the
    largest violation. ``count = 0`` selects each suite's default size,
    and a negative count raises :class:`ValidationError`; the
    ``generators`` suite always checks the six builtin generators, and
    only failed checks add to its violation. Failures never raise; they
    lower the pass count and surface in the records.
    """
    try:
        check, default_count = _SUITES[name]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}"
        ) from None
    if count < 0:
        raise ValidationError(f"count must be non-negative, got {count}")
    if default_count is None:
        count = len(builtin_names())
    elif count == 0:
        count = default_count
    records = []
    passes = 0
    worst = 0.0
    for i in range(count):
        ok, violation, record = check(seed, i)
        passes += ok
        worst = max(worst, violation)
        records.append(record)
    return SuiteResult(name, seed, count, passes, worst, tuple(records))


def _check_generator(seed: int, i: int):
    name = builtin_names()[i]
    rep = check_generator(builtin(name))
    bad = [e.worst for e in rep.entries if not e.passed]
    record = {
        "generator": name,
        "ok": rep.ok,
        "checks": {e.name: e.passed for e in rep.entries},
        "worst": max(e.worst for e in rep.entries),
        "notes": list(rep.notes),
    }
    return not bad, max(bad, default=0.0), record


def _check_variational(seed: int, i: int):
    n = 2 + (i % 9)
    P, Q, _ = random_instance(seed * 7919 + i, n, 1)
    inst_worst = 0.0
    finite_pairs = 0
    for gname in builtin_names():
        g = builtin(gname)
        closed = df_closed(g, P, Q)
        if math.isinf(closed.value):
            continue
        var = df_variational_full(g, P, Q)
        if math.isinf(var.value):
            inst_worst = math.inf
            continue
        finite_pairs += 1
        inst_worst = max(inst_worst, abs(var.value - closed.value))
    ok = inst_worst <= 1e-6
    return ok, inst_worst, {"i": i, "n": n, "pairs": finite_pairs, "worst": inst_worst, "ok": ok}


def _check_duality(seed: int, i: int):
    gen_name, P, Q, phi, radius = duality_instance(seed, i)
    g = builtin(gen_name)
    gr, gr_inf = (duality_gap(g, P, Q, LinearBall(phi, 2, r)) for r in (radius, math.inf))
    # The signed relative gaps, dual less primal: rounding below 0 at most.
    ok = all(-1e-13 <= r.rel_gap <= 1e-3 for r in (gr, gr_inf))
    record = {
        "i": i,
        "generator": gen_name,
        "n": P.space.n,
        "k": phi.k,
        "radius": radius,
        "primal": gr.primal_value,
        "dual": gr.dual_value,
        "rel_gap": gr.rel_gap,
        "rel_gap_inf": gr_inf.rel_gap,
        "ok": ok,
    }
    return ok, max(abs(gr.rel_gap), abs(gr_inf.rel_gap)), record


def _infeasible_projection_instance(seed: int, i: int):
    """Q supported low, P concentrated high: target mean off the hull."""
    n = 3 + (i % 4)
    space = OutcomeSpace.of_size(n)
    phi = FeatureMap(space, np.linspace(0.0, 1.0, n)[None, :])
    q = np.zeros(n)
    q[: max(n // 2, 1)] = 1.0
    Q = make_dist(space, q)
    p = np.full(n, 1e-3)
    p[-1] = 1.0
    P = make_dist(space, p)
    return P, Q, phi


def _check_moment_projection(seed: int, i: int):
    if i % 5 == 4:
        kl = builtin("kl")
        P, Q, phi = _infeasible_projection_instance(seed, i)
        mp = moment_projection(kl, P, Q, phi)
        pr = restricted_div_primal(kl, P, Q, LinearBall(phi, 2, math.inf))
        ok = math.isinf(mp.value) and math.isinf(pr.value)
        record = {"i": i, "kind": "infeasible", "mp": mp.value, "primal": pr.value, "ok": ok}
        return ok, 0.0 if ok else math.inf, record
    n = 3 + (i % 8)
    k = 1 + (i % 3)
    smooth = [name for name in builtin_names() if builtin(name).conjugate_smooth]
    g = builtin(smooth[(i - i // 5) % len(smooth)])
    P, Q, phi = random_instance(seed * 6029 + i, n, k)
    mp = moment_projection(g, P, Q, phi)
    gap = feature_means(mp.pprime, phi) - feature_means(P, phi)
    res = float(np.max(np.abs(gap)))
    pr = restricted_div_primal(g, P, Q, LinearBall(phi, 2, math.inf))
    dv = abs(mp.value - pr.value)
    # Both routes run the same Newton solver, so the closed form
    # checks them independently. By Fenchel-Young, D_f(P'||Q) bounds
    # a . E_P'[phi] - R(a . phi) from above, which is the
    # discriminator value at a up to a . (E_P'[phi] - E_P[phi]).
    d_pprime = df_closed(g, mp.pprime, Q).value
    bound = d_pprime - pr.value
    slack = float(np.linalg.norm(pr.coefficients)) * float(np.linalg.norm(gap))
    slack += 1e-12 * max(1.0, d_pprime)
    # The dual meets the means to rounding: residuals reach 1.1e-16 and the
    # two values differ by up to 5.3e-15 over seeds 0-9 at count 50.
    ok = res <= 1e-14 and dv <= 1e-13 and -slack <= bound <= 1e-13
    record = {"i": i, "kind": "feasible", "generator": g.name, "n": n, "k": k, "residual": res,
              "value_dev": dv, "closed_form_excess": bound, "ok": ok}
    return ok, max(res, dv, abs(bound)), record


def _check_r_functional(seed: int, i: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 977, i]))
    n = 2 + (i % 9)
    _, Q, _ = random_instance(seed * 3571 + i, n, 1)
    space = Q.space
    gens = builtin_names()
    g = builtin(gens[i % len(gens)])
    h = FunctionOnSpace(space, rng.uniform(-3.0, 3.0, n))
    h_up = FunctionOnSpace(space, h.values + rng.uniform(0.0, 1.0, n))
    h_alt = FunctionOnSpace(space, rng.uniform(-3.0, 3.0, n))
    c = float(rng.uniform(-2.0, 2.0))

    r_c, _ = r_functional(g, Q, FunctionOnSpace(space, np.full(n, c)))
    const_dev = abs(r_c - c)

    r_h, _ = r_functional(g, Q, h)
    r_up, _ = r_functional(g, Q, h_up)
    mono_viol = max(r_h - r_up, 0.0)

    r_alt, _ = r_functional(g, Q, h_alt)
    r_mid, _ = r_functional(g, Q, FunctionOnSpace(space, 0.5 * (h.values + h_alt.values)))
    conv_viol = max(r_mid - 0.5 * (r_h + r_alt), 0.0)

    kl = builtin("kl")
    v_closed, _ = r_functional(kl, Q, h)
    v_num, _ = r_functional_numeric(kl, Q, h)
    kl_dev = abs(v_closed - v_num)

    ok = (
        const_dev <= 1e-9
        and mono_viol <= 1e-12
        and conv_viol <= 1e-9
        and kl_dev <= 1e-7
    )
    record = {
        "i": i,
        "generator": g.name,
        "const_dev": const_dev,
        "monotone_viol": mono_viol,
        "midpoint_viol": conv_viol,
        "kl_dev": kl_dev,
        "ok": ok,
    }
    # Led by 0.0, max() passes over a NaN deviation, as the running worst does;
    # the instance still fails.
    return ok, max(0.0, const_dev, mono_viol, conv_viol, kl_dev), record


def _check_gmm_agreement(seed: int, i: int):
    n = 3 + (i % 5)
    k = 1 + (i % 2)
    P, _, phi = random_instance(seed * 4391 + i, n, k)
    rep = fit_linear_fgan(FullSimplex(P.space), P, builtin("kl"), phi, math.inf)
    res = float(np.max(np.abs(feature_means(rep.q_star, phi) - feature_means(P, phi))))
    ok = res <= 1e-9 and rep.objective <= 1e-15  # worst seen over seeds 0-4: 4.4e-11 and 1.1e-16
    return ok, res, {"i": i, "n": n, "k": k, "residual": res, "objective": rep.objective, "ok": ok}


_LADDER = (0.1, 0.3, 1.0, 3.0, 10.0)


def _check_sandwich(seed: int, i: int):
    gen_name, P, Q, phi, _ = duality_instance(seed, i)
    g = builtin(gen_name)
    values = []
    for radius in _LADDER:
        rep = restricted_div_primal(g, P, Q, LinearBall(phi, 2, radius))
        values.append(rep.value)
    tiny = restricted_div_primal(g, P, Q, LinearBall(phi, 2, 1e-9))
    tiny_dev = abs(tiny.value)
    mono_viol = max(
        (values[j] - values[j + 1] for j in range(len(values) - 1)), default=0.0
    )
    mono_viol = max(mono_viol, 0.0)
    gap_norm = float(np.linalg.norm(feature_means(P, phi) - feature_means(Q, phi)))
    closed = df_closed(g, P, Q)
    bound_viol = 0.0
    for radius, v in zip(_LADDER, values):
        ub = radius * gap_norm
        if math.isfinite(closed.value) and absolutely_continuous(P, Q):
            ub = min(ub, closed.value)
        bound_viol = max(bound_viol, v - ub)
    ok = mono_viol <= 1e-8 and tiny_dev <= 1e-8 and bound_viol <= 1e-8
    record = {
        "i": i,
        "generator": gen_name,
        "values": values,
        "tiny": tiny_dev,
        "monotone_viol": mono_viol,
        "bound_viol": bound_viol,
        "ok": ok,
    }
    return ok, max(0.0, mono_viol, tiny_dev, bound_viol), record


# name: (check of instance i, default count; None checks every builtin generator once)
_SUITES = {
    "generators": (_check_generator, None),
    "variational_full": (_check_variational, 100),
    "duality": (_check_duality, 50),
    "moment_projection": (_check_moment_projection, 25),
    "r_functional": (_check_r_functional, 100),
    "gmm_agreement": (_check_gmm_agreement, 10),
    "sandwich": (_check_sandwich, 12),
}

SUITE_NAMES = tuple(_SUITES)
