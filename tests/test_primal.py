import math

import numpy as np
import pytest

from fdual.discriminator import FullSpace, IndicatorOf, LinearBall, QuadraticCoefficientPenalty
from fdual.divergence import df_closed, df_variational_full
from fdual.errors import UnsupportedNorm, ValidationError
from fdual.extreal import POS_INF, finite
from fdual.fgen import builtin
from fdual.dual import _DualObjective, duality_gap
from fdual.primal import (
    PrimalConfig,
    _ReducedObjective,
    project_ball,
    regularized_div_primal,
    restricted_div_primal,
)
from fdual.space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    OutcomeSpace,
    feature_means,
    make_dist,
    random_instance,
)
from fdual.verify import brute_force_primal

KL = builtin("kl")


def test_tiny_radius_value_zero(two_point):
    _, P, Q, phi = two_point
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, finite(1e-9)))
    assert abs(float(rep.value)) <= 1e-8


def test_two_point_completeness(two_point):
    # One feature plus intercept spans all functions on two points, so
    # the unconstrained restricted divergence equals the full KL value.
    _, P, Q, phi = two_point
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, POS_INF))
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert float(rep.value) == pytest.approx(expected, abs=1e-9)
    assert float(rep.value) == pytest.approx(0.143841, abs=1e-6)
    assert rep.converged


def test_small_radius_sandwich(two_point):
    _, P, Q, phi = two_point
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, finite(0.1)))
    v = float(rep.value)
    assert 0.0 < v <= min(0.1 * 0.25, 0.143842) + 1e-10


def test_full_space_delegates(two_point):
    _, P, Q, _ = two_point
    rep = restricted_div_primal(KL, P, Q, FullSpace(P.space))
    dv = df_variational_full(KL, P, Q)
    assert float(rep.value) == pytest.approx(float(dv.value), abs=1e-12)
    assert rep.h_opt is not None


def test_intercept_free_rejected(two_point):
    _, P, Q, phi = two_point
    with pytest.raises(ValidationError):
        restricted_div_primal(KL, P, Q, LinearBall(phi, 2, finite(1.0), intercept=False))


def test_unbounded_detection():
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [1, 1])
    Q = make_dist(space, [1, 0])
    phi = FeatureMap(space, [[0.0, 1.0]])
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, POS_INF))
    assert rep.status == "unbounded"
    assert rep.value.is_pos_inf
    assert not rep.attained


def test_unsupported_projection_norm(two_point):
    _, P, Q, phi = two_point
    with pytest.raises(UnsupportedNorm):
        restricted_div_primal(KL, P, Q, LinearBall(phi, 3.0, finite(1.0)))


def test_project_ball_cases():
    a = np.array([3.0, -4.0])
    p2 = project_ball(a, 2.0, 1.0)
    assert np.linalg.norm(p2) == pytest.approx(1.0)
    pinf = project_ball(a, math.inf, 1.0)
    assert np.allclose(pinf, [1.0, -1.0])
    p1 = project_ball(a, 1.0, 1.0)
    assert np.sum(np.abs(p1)) == pytest.approx(1.0)
    assert np.allclose(project_ball(a, 2.0, math.inf), a)


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_ball_feasibility_of_solution(p):
    P, Q, phi = random_instance(21, 8, 3)
    radius = 0.8
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, p, finite(radius)))
    norm = np.sum(np.abs(rep.coefficients)) if p == 1.0 else (
        np.max(np.abs(rep.coefficients)) if math.isinf(p) else np.linalg.norm(rep.coefficients)
    )
    assert norm <= radius * (1 + 1e-9)


def test_monotone_in_radius():
    for seed in (31, 32):
        P, Q, phi = random_instance(seed, 7, 2)
        for name in ("kl", "pearson_chi2"):
            g = builtin(name)
            values = [
                float(restricted_div_primal(g, P, Q, LinearBall(phi, 2, finite(r))).value)
                for r in (0.1, 0.3, 1.0, 3.0, 10.0)
            ]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo - 1e-8


def test_weak_duality_feasible_points():
    # Any feasible (a, b) evaluates below the reported optimum.
    rng = np.random.default_rng(9)
    P, Q, phi = random_instance(41, 6, 2)
    radius = 1.0
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, finite(radius)))
    m_p = feature_means(P, phi)
    for _ in range(50):
        a = rng.normal(size=2)
        nrm = float(np.linalg.norm(a))
        if nrm > radius:
            a *= radius / nrm
        b = float(rng.normal(scale=2.0))
        h = a @ phi.values + b
        obj = float(P.p @ h) - float(Q.p @ np.exp(h - 1.0))
        assert obj <= float(rep.value) + 1e-8


def test_gradient_matches_finite_differences():
    P, Q, phi = random_instance(55, 9, 3)
    rng = np.random.default_rng(12)
    for name in ("kl", "pearson_chi2", "squared_hellinger", "js_gan"):
        obj = _ReducedObjective(builtin(name), P, Q, phi)
        for _ in range(10):
            a = rng.uniform(-0.8, 0.8, 3)
            _, grad, _, _, _, _ = obj.moments(a)
            fd = obj.fd_gradient(a)
            denom = max(1.0, float(np.linalg.norm(grad)))
            assert float(np.linalg.norm(fd - grad)) / denom <= 1e-4


def test_reduced_objective_concavity():
    P, Q, phi = random_instance(66, 6, 2)
    rng = np.random.default_rng(13)
    obj = _ReducedObjective(KL, P, Q, phi)
    for _ in range(20):
        a1 = rng.uniform(-1, 1, 2)
        a2 = rng.uniform(-1, 1, 2)
        mid = obj.exact(0.5 * (a1 + a2))[0]
        assert mid >= 0.5 * (obj.exact(a1)[0] + obj.exact(a2)[0]) - 1e-9


def test_solver_fd_check_recorded():
    P, Q, phi = random_instance(77, 10, 3)
    rep = restricted_div_primal(
        builtin("squared_hellinger"), P, Q, LinearBall(phi, 2, finite(0.1))
    )
    assert rep.fd_gradient_worst <= 1e-4


def test_regularized_p_equals_q(two_point):
    _, P, _, phi = two_point
    rep = regularized_div_primal(KL, P, P, QuadraticCoefficientPenalty(phi, 0.5))
    assert abs(float(rep.value)) <= 1e-10
    assert np.max(np.abs(rep.coefficients)) <= 1e-4


def test_regularized_huge_weight(two_point):
    _, P, Q, phi = two_point
    rep = regularized_div_primal(KL, P, Q, QuadraticCoefficientPenalty(phi, 1e8))
    assert 0.0 <= float(rep.value) <= 1e-8


def test_regularized_grid_oracle(two_point):
    # Brute-force oracle: dense grid over the single coefficient with
    # the closed-form KL objective computed inline.
    _, P, Q, phi = two_point
    w = 1.0
    rep = regularized_div_primal(KL, P, Q, QuadraticCoefficientPenalty(phi, w))
    grid = np.arange(-10.0, 10.0, 1e-4)
    lse = np.log(0.75 + 0.25 * np.exp(grid))
    oracle = np.max(grid * 0.5 - lse - w * grid**2)
    assert float(rep.value) == pytest.approx(float(oracle), abs=1e-6)


def test_total_variation_reports_exact_value_and_tilt():
    # Total variation is solved on its smoothed conjugate; the value is the
    # exact objective at the final slope, with the intercept that puts
    # max h at 1/2, and P' is the smoothed tilt.
    from fdual.divergence import r_functional

    P, Q, phi = random_instance(8801, 4, 2)
    tv = builtin("total_variation")
    rep = restricted_div_primal(tv, P, Q, LinearBall(phi, 2, finite(1.0)))
    assert rep.route == "newton" and rep.converged and not rep.notes
    h = rep.coefficients @ phi.values
    r_val, b = r_functional(tv, Q, FunctionOnSpace(P.space, h))
    assert float(rep.value) == float(rep.coefficients @ feature_means(P, phi)) - r_val
    assert rep.intercept == b
    assert float(np.max(rep.h_opt.values)) <= 0.5
    assert float(np.sum(rep.pprime.p)) == pytest.approx(1.0, abs=1e-12)


def test_value_log_monotone_enough():
    # Logged iterate values are exact evaluations and the last is best.
    P, Q, phi = random_instance(88, 8, 2)
    rep = restricted_div_primal(builtin("js_gan"), P, Q, LinearBall(phi, 2, finite(1.0)))
    log = rep.value_log
    assert log[-1] == max(log)


def _kl_ball_cases():
    # Random KL instances on 2-balls: full-support Q, and Q with its last
    # outcome dropped (a feature direction P can push along unboundedly).
    for seed in range(6):
        for n, k in ((3, 1), (5, 2), (8, 2)):
            P, Q, phi = random_instance(300 + seed, n, k)
            q = Q.p.copy()
            if seed % 2:
                q[-1] = 0.0
                Q = Dist(Q.space, q / q.sum())
            for radius in (0.1, 1.0, 10.0, math.inf):
                yield P, Q, phi, radius


def test_kl_newton_matches_dual_and_grid():
    interior = boundary = 0
    for P, Q, phi, radius in _kl_ball_cases():
        unbounded = math.isinf(radius)
        spec = LinearBall(phi, 2, POS_INF if unbounded else finite(radius))
        rep = restricted_div_primal(KL, P, Q, spec, PrimalConfig(tol=1e-10))
        v = float(rep.value)
        assert rep.status == "converged"
        assert rep.iterations <= 20
        # The dual value bounds the supremum from above (+inf with the primal's).
        # At infinite radius it is D(P'||Q) at the moment projection, whose
        # moments miss by the residual: off by a . (E_P'[phi] - E_P[phi]).
        gr = duality_gap(KL, P, Q, spec, PrimalConfig(tol=1e-10))
        assert float(gr.primal_value) == v
        assert gr.rel_gap <= (1e-8 if unbounded else 1e-9)
        if unbounded:
            continue
        nrm = float(np.linalg.norm(rep.coefficients))
        assert nrm <= radius * (1 + 1e-12)
        if nrm < radius * (1 - 1e-6):
            interior += 1
        else:
            boundary += 1
        if phi.k == 1:
            bf = brute_force_primal(KL, P, Q, spec, radius / 200.0)
            assert bf.value <= v + 1e-9
            assert v <= bf.value + bf.error_bound
    assert interior >= 10 and boundary >= 10


def test_kl_newton_accepts_steps_within_rounding():
    # Near the optimum the true gain of a Newton step is below the
    # rounding error of J; an Armijo test without slack rejects exact
    # steps there and the solve stops short of tol.
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, [0.2, 0.5, 0.3])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    spec = LinearBall(phi, 2, finite(1.0))
    qs = [[0.47885051, 0.04229898, 0.47885051]]
    qs += [[1.0, math.exp(t), 1.0] for t in np.linspace(-4.0, 1.0, 201)]
    for q in qs:
        rep = restricted_div_primal(KL, P, make_dist(space, q), spec, PrimalConfig(tol=1e-10))
        assert rep.status == "converged"
        assert rep.iterations < 20


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_kl_infinite_radius_face_of_feature_hull(p):
    # P sits on a vertex of Q's feature hull: the supremum log 3 is
    # approached as a -> -inf and never attained.
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, [1.0, 0.0, 0.0])
    Q = make_dist(space, [1.0, 1.0, 1.0])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, p, POS_INF))
    assert rep.status == "converged"
    assert rep.iterations <= 25
    assert float(rep.value) == pytest.approx(math.log(3.0), abs=1e-8)


SMOOTH_NON_KL = ("pearson_chi2", "squared_hellinger", "js_gan", "reverse_kl")


def test_hellinger_interior_optimum_converges():
    # squared_hellinger, n=4, k=3, R=10, interior optimum with ||a|| = 7.85:
    # first-order ascent stopped at its 10 000-iteration cap with a 2.6e-4
    # relative gap to the dual.
    from fdual.dual import duality_gap
    from fdual.verify import duality_instance

    name, P, Q, phi, radius = duality_instance(8, 2)
    gr = duality_gap(builtin(name), P, Q, LinearBall(phi, 2, finite(radius)))
    assert gr.primal.status == "converged"
    assert gr.primal.iterations <= 10
    assert gr.rel_gap <= 1e-12


def test_newton_on_duality_instances_converges():
    # Every non-KL 2-ball solve of two duality batteries converges in a
    # handful of Newton steps, within 1e-9 of the dual's exact upper bound.
    from fdual.verify import duality_instance

    for seed in (1, 8):
        for i in range(50):
            name, P, Q, phi, radius = duality_instance(seed, i)
            if name == "kl":
                continue
            spec = LinearBall(phi, 2, finite(radius))
            rep = restricted_div_primal(builtin(name), P, Q, spec, PrimalConfig(tol=1e-10))
            assert rep.status == "converged"
            assert rep.iterations <= 12
            assert np.linalg.norm(rep.coefficients) <= radius * (1 + 1e-12)
            gr = duality_gap(builtin(name), P, Q, spec, PrimalConfig(tol=1e-10))
            assert float(gr.primal_value) == float(rep.value)
            assert gr.rel_gap <= 1e-9


@pytest.mark.parametrize("name", SMOOTH_NON_KL)
def test_newton_matches_grid_oracle(name):
    g = builtin(name)
    for seed in range(3):
        P, Q, phi = random_instance(700 + seed, 5, 1)
        for radius in (0.3, 3.0):
            spec = LinearBall(phi, 2, finite(radius))
            rep = restricted_div_primal(g, P, Q, spec, PrimalConfig(tol=1e-10))
            assert rep.status == "converged"
            bf = brute_force_primal(g, P, Q, spec, radius / 200.0)
            assert bf.value <= float(rep.value) + 1e-9
            assert float(rep.value) <= bf.value + bf.error_bound


@pytest.mark.parametrize("name", SMOOTH_NON_KL + ("kl",))
def test_regularized_newton_converges(name):
    # Instances on which the plain ascent stopped not_converged at the
    # default tolerance (js_gan at weight 1e-3 after 1 851 iterations).
    from fdual.verify import duality_instance

    g = builtin(name)
    for i in (2, 14, 23, 34):
        _, P, Q, phi, _ = duality_instance(2, i)
        for weight in (1e-3, 0.1, 10.0):
            reg = QuadraticCoefficientPenalty(phi, weight)
            rep = regularized_div_primal(g, P, Q, reg, PrimalConfig(tol=1e-10))
            assert rep.status == "converged"
            assert rep.iterations <= 25
            gr = duality_gap(g, P, Q, reg, PrimalConfig(tol=1e-10))
            assert float(gr.primal_value) == float(rep.value)
            assert gr.rel_gap <= 1e-9


@pytest.mark.parametrize("name", SMOOTH_NON_KL)
def test_intercept_solves_its_equation_to_rounding(name):
    # The gradient's weights q_i f*'(a . phi_i + b*) must sum to one at
    # rounding level, or the gradient carries noise above tol = 1e-10.
    g = builtin(name)
    rng = np.random.default_rng(5)
    P, Q, phi = random_instance(61, 9, 3)
    obj = _ReducedObjective(g, P, Q, phi)
    for scale in (0.1, 10.0, 1e4):
        a = rng.normal(size=3) * scale
        _, _, _, b, _, _ = obj.moments(a)
        total = float(Q.p @ g.fstar_prime_vec(a @ phi.values + b))
        assert abs(total - 1.0) <= 64.0 * np.finfo(float).eps * (1.0 + abs(b))


@pytest.mark.parametrize("name", SMOOTH_NON_KL)
def test_moments_reuse_the_intercepts_slopes(name):
    # The slopes moments() reads from _intercept are taken at the
    # intercept it returns: fresh ones there give the same bits.
    g = builtin(name)
    rng = np.random.default_rng(8)
    P, Q, phi = random_instance(62, 9, 3)
    obj = _ReducedObjective(g, P, Q, phi)
    for scale in (0.1, 1.0, 10.0):
        a = rng.normal(size=3) * scale
        _, grad, cov, b, _, _ = obj.moments(a)
        t = a @ obj.phi_s + b
        w = obj.qs * g.fstar_second_vec(t)
        mu = obj.phi_s @ w / max(float(w.sum()), np.finfo(float).tiny)
        centered = obj.phi_s - mu[:, None]
        assert np.array_equal(grad, obj.m_p - obj.phi_s @ (obj.qs * g.fstar_prime_vec(t)))
        assert np.array_equal(cov, (centered * w) @ centered.T)


def test_objectives_share_full_support_arrays():
    # Primal and dual objectives take supp Q from the same restriction,
    # which under full support copies nothing.
    P, Q, phi = random_instance(63, 30, 2)
    obj = _ReducedObjective(builtin("squared_hellinger"), P, Q, phi)
    dual_obj = _DualObjective(KL, P, Q, IndicatorOf(LinearBall(phi, 2, finite(1.0))))
    for o in (obj, dual_obj):
        assert o.qs is Q.p and o.phi_s is phi.values


@pytest.mark.parametrize("name", ("kl", "squared_hellinger"))
def test_radius_below_tol_is_solved(name):
    # The first projected step from 0 has length R, so an absolute
    # stopping test at tol >= R stopped there with value 0.
    g = builtin(name)
    P, Q, phi = random_instance(43, 6, 2)
    spec = LinearBall(phi, 2, finite(1e-9))
    rep = restricted_div_primal(g, P, Q, spec)
    ref = restricted_div_primal(g, P, Q, spec, PrimalConfig(tol=1e-14))
    assert rep.status == "converged"
    assert float(ref.value) > 1e-10
    assert float(rep.value) == pytest.approx(float(ref.value), rel=1e-9)


def test_intercept_beyond_former_search_box():
    # chi-square(P||Q) = 809 999.01 is reached at a = -1.8e5 with an
    # intercept near 1.8e6, far outside any fixed search box for b.
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [0.9, 0.1])
    Q = make_dist(space, [1e-6, 1.0 - 1e-6])
    phi = FeatureMap(space, [[0.0, 10.0]])
    g = builtin("pearson_chi2")
    rep = restricted_div_primal(g, P, Q, LinearBall(phi, 2, POS_INF))
    expected = float(df_closed(g, P, Q).value)
    assert rep.status == "converged"
    assert float(rep.value) == pytest.approx(expected, rel=1e-12)
    assert rep.iterations <= 20


def test_stopping_rule_allows_for_gradient_rounding():
    # Same instance at tol 1e-10. At a = -1.8e5 the argument a . phi + b of
    # f* cancels terms of size 1.8e6, so the gradient's rounding (about
    # 1e-9) exceeds tol: an absolute rule ran 38 iterations and reported
    # not_converged with the value right to 15 digits.
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [0.9, 0.1])
    Q = make_dist(space, [1e-6, 1.0 - 1e-6])
    phi = FeatureMap(space, [[0.0, 10.0]])
    g = builtin("pearson_chi2")
    rep = restricted_div_primal(g, P, Q, LinearBall(phi, 2, POS_INF), PrimalConfig(tol=1e-10))
    assert rep.status == "converged"
    assert float(rep.value) == pytest.approx(float(df_closed(g, P, Q).value), rel=1e-14)
    assert rep.iterations <= 20


FACE_VALUES = {
    "kl": math.log(1.5),
    "squared_hellinger": 0.367006838,
    "js_gan": 0.264608249,
}


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_infinite_radius_on_face_of_feature_hull(p):
    # E_P[phi] = (1/2, 1/2) lies on the edge between the features of the
    # second and third outcomes. Where f*' > 0 everywhere the supremum
    # is approached along the edge's normal and is not attained; a
    # gradient rule alone stopped "converged" short of it (Hellinger
    # 0.366946) or at a finite value where it is infinite (reverse KL).
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, [0.0, 0.5, 0.5])
    Q = make_dist(space, [1.0, 1.0, 1.0])
    phi = FeatureMap(space, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    from fdual.dual import moment_projection

    spec = LinearBall(phi, p, POS_INF)
    for name, expected in FACE_VALUES.items():
        rep = restricted_div_primal(builtin(name), P, Q, spec)
        assert rep.status == "converged"
        assert not rep.attained
        assert float(rep.value) == pytest.approx(expected, abs=1e-9)
        # The projection lives on the face: the tilt puts no mass off it.
        mp = moment_projection(builtin(name), P, Q, phi)
        assert mp.converged and not mp.attained
        assert mp.pprime.p[0] == 0.0
        assert np.allclose(mp.pprime.p, P.p, atol=1e-12)
    # Pearson's f*' vanishes below t = -2: the face is reached at finite a.
    rep = restricted_div_primal(builtin("pearson_chi2"), P, Q, spec)
    assert rep.status == "converged" and rep.attained
    assert float(rep.value) == pytest.approx(0.5, abs=1e-9)
    # f(0) = +inf: the mass off the face costs +inf.
    rep = restricted_div_primal(builtin("reverse_kl"), P, Q, spec)
    assert rep.status == "unbounded"
    assert rep.value.is_pos_inf


@pytest.mark.parametrize("name", ["kl", "squared_hellinger", "js_gan"])
def test_face_solve_respects_iteration_cap(name):
    # The solve on the face continues with what is left of max_iters;
    # here it needs several steps of its own.
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, [0.0, 0.2, 0.8])
    Q = make_dist(space, [0.5, 0.3, 0.2])
    spec = LinearBall(FeatureMap(space, [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), 2, POS_INF)
    for cap in range(1, 17):
        rep = restricted_div_primal(builtin(name), P, Q, spec, PrimalConfig(max_iters=cap))
        assert rep.iterations <= cap
    assert rep.converged and not rep.attained


@pytest.mark.parametrize(
    "route, g, spec_of",
    [
        ("newton", KL, lambda phi: LinearBall(phi, 2, finite(1.0))),
        ("newton", KL, lambda phi: LinearBall(phi, 1, finite(1.0))),
        ("newton", builtin("total_variation"), lambda phi: LinearBall(phi, 2, finite(1.0))),
        ("closed_form", KL, lambda phi: FullSpace(phi.space)),
    ],
)
def test_report_names_its_route(route, g, spec_of):
    P, Q, phi = random_instance(3, 3, 1)
    assert restricted_div_primal(g, P, Q, spec_of(phi)).route == route
