import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from fdual.discriminator import FullSpace, LinearBall, QuadraticCoefficientPenalty
from fdual.divergence import df_closed, df_variational_full
from fdual.errors import UnsupportedNorm, ValidationError
from fdual.extreal import POS_INF, finite
from fdual.fgen import builtin
from fdual.dual import duality_gap
from fdual import primal
from fdual.primal import (
    PIN,
    PrimalConfig,
    _newton_ball,
    _ReducedObjective,
    _separates,
    project_ball,
    regularized_div_primal,
    restricted_div_primal,
)
from fdual.space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    OutcomeSpace,
    _restrict_to_support,
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


def test_unbounded_detection():
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [1, 1])
    Q = make_dist(space, [1, 0])
    phi = FeatureMap(space, [[0.0, 1.0]])
    rep = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, POS_INF))
    assert rep.status == "unbounded"
    assert rep.value == math.inf
    assert not rep.attained


def test_unsupported_projection_norm(two_point):
    _, P, Q, phi = two_point
    with pytest.raises(UnsupportedNorm):
        restricted_div_primal(KL, P, Q, LinearBall(phi, 3.0, finite(1.0)))


def test_project_ball_cases():
    a = np.array([3.0, -4.0])
    p2 = project_ball(a, 1.0)
    assert np.linalg.norm(p2) == pytest.approx(1.0)
    assert np.allclose(project_ball(a, math.inf), a)


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
    # relative gap to the dual. Four atoms and three features plus an
    # intercept span every function, so the interior optimum is D(P || Q).
    from fdual.dual import duality_gap
    from fdual.verify import duality_instance

    name, P, Q, phi, radius = duality_instance(8, 2)
    g = builtin(name)
    gr = duality_gap(g, P, Q, LinearBall(phi, 2, finite(radius)))
    assert gr.primal.status == "converged"
    assert gr.primal.iterations <= 10
    closed = float(df_closed(g, P, Q).value)
    assert abs(float(gr.primal_value) - closed) / max(1.0, closed) <= 1e-12
    assert gr.dual.status == "converged"


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
    assert obj.qs is Q.p and obj.phi_s is phi.values
    # The dual's restriction, as restricted_div_dual makes it.
    _, qs, phi_s = _restrict_to_support(Q, phi)
    assert qs is Q.p and phi_s is phi.values


def _peak_growth(fn) -> int:
    """Bytes by which traced memory peaks above its level before ``fn()``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ("kl", "squared_hellinger"))
def test_wide_passes_allocate_no_k_by_n_block(name):
    # Fresh k x n arrays cost page faults on every pass over a wide space:
    # the pass writes phi_s - mu and its weighted copy into the workspace,
    # and neither the construction nor the rounding bound forms |phi|. The
    # few n-vectors a pass keeps alive at once stay below one k x n block.
    P, Q, phi = random_instance(64, 4096, 8)
    block = phi.values.nbytes
    g = builtin(name)
    a = np.linspace(-0.3, 0.3, 8)
    obj = _ReducedObjective(g, P, Q, phi)
    obj.moments(a)
    _separates(obj, a)
    assert _peak_growth(lambda: obj.moments(a)) < block
    assert _peak_growth(lambda: _ReducedObjective(g, P, Q, phi)) < block
    assert _peak_growth(lambda: _separates(obj, a)) < block


def _reference_moments(obj, a):
    """``obj.moments(a)`` with fresh k x n temporaries in place of the workspace."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(primal, "_centering_pair", lambda shape: (np.empty(shape), np.empty(shape)))
        return obj.moments(a)


def _same_bits(x, y) -> bool:
    return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(x, y))


def test_moments_workspace_is_reused_safely():
    # Objectives of different shapes take turns with the one workspace;
    # every pass matches, bit for bit, the same pass on fresh temporaries,
    # and the workspace ends holding the last shape's pair alone.
    P, Q, phi = random_instance(65, 40, 3)
    q = Q.p.copy()
    q[-1] = 0.0
    dropped = Dist(Q.space, q / q.sum())
    _, _, phi2 = random_instance(66, 40, 2)

    def objectives():
        pinned = _ReducedObjective(KL, P, Q, phi)
        pinned.pin = np.where(np.arange(40) % 4 == 0, PIN, 0.0)
        return [_ReducedObjective(KL, P, Q, phi), _ReducedObjective(KL, P, dropped, phi),
                _ReducedObjective(builtin("squared_hellinger"), P, dropped, phi), pinned,
                _ReducedObjective(builtin("js_gan"), P, Q, phi2)]

    points = [np.linspace(-s, s, 3) for s in (0.0, 0.5, 2.0)]
    expected = [[_reference_moments(obj, a[: obj.phi_s.shape[0]]) for a in points] for obj in objectives()]
    objs = objectives()
    got = [[] for _ in objs]
    for a in points:
        for j in (0, 4, 1, 3, 2):
            got[j].append(objs[j].moments(a[: objs[j].phi_s.shape[0]]))
    for exp_runs, got_runs in zip(expected, got):
        assert len(got_runs) == len(points)
        for exp, out in zip(exp_runs, got_runs):
            assert _same_bits(exp, out)
    pair = primal._workspace.pair
    assert vars(primal._workspace).keys() == {"pair"}
    assert [x.shape for x in pair] == [objs[2].phi_s.shape] * 2
    objs[1].moments(points[0])
    assert primal._workspace.pair is pair


def test_threads_solving_different_shapes_match_serial_solves():
    # The workspace is per thread: concurrent solves and moments passes,
    # two of one shape and one of another, give the serial results to the
    # bit. A workspace shared by all threads corrupts only the odd pass
    # of two threads of one shape (about one in a hundred here), so the
    # passes repeat.
    cases = []
    for seed, n, k, name, drop in ((67, 1000, 3, "kl", False), (68, 1000, 3, "squared_hellinger", False),
                                   (69, 800, 2, "kl", True)):
        P, Q, phi = random_instance(seed, n, k)
        if drop:
            q = Q.p.copy()
            q[-1] = 0.0
            Q = Dist(Q.space, q / q.sum())
        cases.append((builtin(name), P, Q, phi))

    def run(case, out, start=None):
        if start is not None:
            start.wait(timeout=60)
        g, P, Q, phi = case
        obj, a = _ReducedObjective(g, P, Q, phi), np.linspace(-1.0, 1.0, phi.k)
        out.extend(obj.moments(a)[2].tobytes() for _ in range(4000))
        for _ in range(10):
            rep = restricted_div_primal(g, P, Q, LinearBall(phi, 2, finite(1.0)))
            out.append((float(rep.value), rep.status, rep.iterations, rep.coefficients.tobytes(),
                        rep.pprime.p.tobytes()))

    serial = []
    for case in cases:
        serial.append([])
        run(case, serial[-1])
    concurrent = [[] for _ in cases]
    start = threading.Barrier(len(cases))
    threads = [threading.Thread(target=run, args=(case, out, start)) for case, out in zip(cases, concurrent)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert concurrent == serial


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


def test_total_variation_at_infinite_radius_on_a_vertex_of_the_hull():
    # E_P[phi] = 3 is the hull's upper end: the smoothed stages pin the
    # atoms below it, and the exact objective on that face gives the
    # supremum, TV(P, Q) = 0.75, approached and not attained.
    space = OutcomeSpace.of_size(4)
    P = make_dist(space, [0.0, 0.0, 0.0, 1.0])
    Q = make_dist(space, [1.0, 1.0, 1.0, 1.0])
    g = builtin("total_variation")
    rep = restricted_div_primal(g, P, Q, LinearBall(FeatureMap(space, [[0.0, 1.0, 2.0, 3.0]]), 2, POS_INF))
    assert rep.status == "converged" and not rep.attained
    assert float(rep.value) == 0.75 == float(df_closed(g, P, Q).value)


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
    assert rep.value == math.inf


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


def test_intercept_root_within_rounding_of_the_domain_end():
    # Q is a point mass up to atoms of mass 1e-31 and 1e-61. The top atom of
    # h = a . phi (mass 3.7e-31) holds the intercept at the end ln 2 of the
    # JS conjugate's domain, and the root of E_Q[f*'(h + b)] = 1 lies within
    # 1e-30 of it, closer than a float can get. The intercept stays inside
    # the domain and the top atom's slope carries the jump there; the solve
    # reaches the optimum of the reduced problem, which a 1-D search over the
    # sphere finds at 0.25961835190147475, and its tilt certifies it. A
    # converged status at residual 1 (the gradient's rounding bound read inf)
    # was returned at 0.034 before.
    space = OutcomeSpace.of_size(6)
    Q = Dist(space, np.array([1.0, 4.276424006466739e-61, 4.130148979013364e-31,
                              4.511998187937016e-61, 1.686581545555930e-61, 3.663606548974925e-31]))
    P = make_dist(space, [0.1617562896710927, 0.12447770436697943, 0.05676226544344049,
                          0.24446816366590007, 0.22770634001615978, 0.18482923683642744])
    phi = FeatureMap(space, [[-0.4209588125477435, 0.548828149938067, -0.25239742340070914,
                              -0.37151472634415605, -0.35315534090351, 0.7989185976411086],
                             [0.22551955137610702, -0.7228371387949788, 0.5698096992671833,
                              -0.29675797326571063, 0.6400142889975873, -0.8837865261928255]])
    g, spec = builtin("js_gan"), LinearBall(phi, 2, finite(2.0))
    rep = restricted_div_primal(g, P, Q, spec, PrimalConfig(tol=1e-10))
    assert rep.status == "converged" and rep.residual <= 1e-10
    assert float(rep.value) == pytest.approx(0.25961835190147475, rel=1e-12)
    assert np.max(rep.h_opt.values) < math.log(2.0)
    gap = duality_gap(g, P, Q, spec)
    assert gap.dual.route == "primal_tilt" and gap.rel_gap <= 1e-12


def test_infinite_rounding_bound_never_certifies():
    # A gradient whose rounding bound reads inf (f*'' = inf at an atom) is
    # not known to any accuracy: the loop must not call it converged.
    P, Q, phi = random_instance(3, 4, 2)
    obj = _ReducedObjective(builtin("js_gan"), P, Q, phi)
    moments = obj.moments
    obj.moments = lambda a: (*moments(a)[:5], math.inf)
    out = _newton_ball(obj, 1.0, PrimalConfig())
    assert out.status == "not_converged"


@pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf])
def test_primal_config_rejects_bad_tolerances(tol):
    # An infinite tol passed, and every solve then ended not_converged:
    # residual <= tol + gerr < inf can never hold.
    with pytest.raises(ValidationError, match="^tol must be positive"):
        PrimalConfig(tol=tol)
