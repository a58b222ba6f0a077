import dataclasses
import math

import numpy as np
import pytest

from fdual.divergence import (
    T_CAP,
    df_closed,
    df_variational_full,
    kl_bar,
    r_functional,
    r_functional_numeric,
)
from fdual.fgen import builtin, builtin_names
from fdual.optim1d import bisect_sign_change
from fdual.space import FunctionOnSpace, OutcomeSpace, make_dist, random_instance
from search_oracles import golden_max, golden_max_batch, ladder_bracket

KL = builtin("kl")
ALL = list(builtin_names())

# Direct-summation oracles for the 2-point pair P=(1/2,1/2), Q=(1/4,3/4).
KL_HALF_QUARTER = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
PEARSON_HALF_QUARTER = 0.25 * (0.5 / 0.25 - 1.0) ** 2 + 0.75 * (0.5 / 0.75 - 1.0) ** 2


@pytest.fixture
def space2():
    return OutcomeSpace.of_size(2)


def test_closed_identical(space2):
    P = make_dist(space2, [1, 1])
    assert float(df_closed(KL, P, P).value) == 0.0


def test_closed_kl_oracle(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [1, 3])
    val = df_closed(KL, P, Q)
    assert float(val.value) == pytest.approx(KL_HALF_QUARTER, abs=1e-12)
    assert float(val.value) == pytest.approx(0.143841, abs=1e-6)


def test_closed_pearson_oracle(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [1, 3])
    val = df_closed(builtin("pearson_chi2"), P, Q)
    assert float(val.value) == pytest.approx(PEARSON_HALF_QUARTER, abs=1e-12)
    assert float(val.value) == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_closed_escape_infinite(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [1, 0])
    assert df_closed(KL, P, Q).value.is_pos_inf


def test_closed_escape_finite_slope(space2):
    # Total variation charges escape mass at slope 1/2.
    P = make_dist(space2, [0.0, 1.0])
    Q = make_dist(space2, [1.0, 0.0])
    val = df_closed(builtin("total_variation"), P, Q)
    assert float(val.value) == pytest.approx(1.0, abs=1e-12)


def test_variational_identical(space2):
    P = make_dist(space2, [1, 1])
    dv = df_variational_full(KL, P, P)
    assert float(dv.value) == pytest.approx(0.0, abs=1e-10)
    assert np.max(np.abs(dv.attained_h.values - 1.0)) <= 1e-5


def test_variational_kl_maximizer(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [1, 3])
    dv = df_variational_full(KL, P, Q)
    assert float(dv.value) == pytest.approx(KL_HALF_QUARTER, abs=1e-9)
    expected_h = np.array([1.0 + math.log(2.0), 1.0 + math.log(2.0 / 3.0)])
    assert np.max(np.abs(dv.attained_h.values - expected_h)) <= 1e-5
    assert not dv.capped


def test_variational_unbounded_coordinate(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [1, 0])
    dv = df_variational_full(KL, P, Q)
    assert dv.value.is_pos_inf
    assert dv.capped
    assert dv.attained_h.values[1] == 1e3


def test_variational_matches_closed_all_generators():
    for i in range(20):
        n = 2 + (i % 9)
        P, Q, _ = random_instance(1000 + i, n, 1)
        for name in ALL:
            g = builtin(name)
            closed = df_closed(g, P, Q)
            var = df_variational_full(g, P, Q)
            assert closed.value.is_finite and var.value.is_finite
            assert abs(float(var.value) - float(closed.value)) <= 1e-6


@pytest.mark.parametrize("name, p, q", [
    ("reverse_kl", [1e-4, 1.0 - 1e-4], [0.5, 0.5]),
    ("squared_hellinger", [1e-9, 1.0 - 1e-9], [0.5, 0.5]),
    ("pearson_chi2", [0.999, 0.001], [1e-3, 0.999]),
])
def test_variational_maximizer_beyond_the_cap(space2, name, p, q):
    # f'(p_0 / q_0) is -5000, about -2.2e4 and 1996: past the default cap
    # of 1e3, where the box end fell short of the closed form (3.507
    # against 3.912 for reverse KL).
    g = builtin(name)
    P, Q = make_dist(space2, p), make_dist(space2, q)
    var = df_variational_full(g, P, Q)
    assert float(var.value) == pytest.approx(float(df_closed(g, P, Q).value), abs=1e-12)
    assert var.attained_h.values[0] == pytest.approx(float(g.f_prime_vec(np.array([p[0] / q[0]]))[0]), rel=1e-12)
    assert not var.capped


def test_closed_nonnegative_and_zero_on_diagonal():
    for i in range(10):
        P, Q, _ = random_instance(2000 + i, 3 + i % 6, 1)
        for name in ALL:
            g = builtin(name)
            assert float(df_closed(g, P, P).value) == 0.0
            assert float(df_closed(g, P, Q).value) >= -1e-12


def test_kl_bar_examples(space2):
    P = make_dist(space2, [1, 1])
    Q = make_dist(space2, [3, 1])
    assert float(kl_bar(P, P).value) == 0.0
    assert float(kl_bar(P, Q).value) == pytest.approx(0.143841, abs=1e-6)
    Q0 = make_dist(space2, [0, 1])
    assert kl_bar(P, Q0).value.is_pos_inf


@pytest.mark.parametrize("name", ALL)
def test_r_functional_constant(name, space2):
    g = builtin(name)
    Q = make_dist(space2, [1, 1])
    for c in (-1.5, 0.0, 2.5):
        val, _ = r_functional(g, Q, FunctionOnSpace(space2, [c, c]))
        assert val == pytest.approx(c, abs=1e-9)


def test_r_functional_kl_closed_form(space2):
    Q = make_dist(space2, [1, 1])
    h = FunctionOnSpace(space2, [0.0, math.log(3.0)])
    val, b_star = r_functional(KL, Q, h)
    assert val == pytest.approx(math.log(2.0), abs=1e-12)
    # Optimal intercept satisfies E_Q[e^{h+b-1}] = 1.
    assert b_star == pytest.approx(1.0 - math.log(2.0), abs=1e-12)


def test_r_functional_monotone(space2):
    rng = np.random.default_rng(5)
    Q = make_dist(space2, [1, 2])
    for name in ALL:
        g = builtin(name)
        for _ in range(10):
            h = rng.uniform(-3, 3, 2)
            hp = h + rng.uniform(0, 1, 2)
            r1, _ = r_functional(g, Q, FunctionOnSpace(space2, h))
            r2, _ = r_functional(g, Q, FunctionOnSpace(space2, hp))
            assert r1 <= r2 + 1e-12


def test_r_functional_midpoint_convex():
    rng = np.random.default_rng(6)
    space = OutcomeSpace.of_size(5)
    Q = make_dist(space, rng.random(5) + 0.1)
    for name in ALL:
        g = builtin(name)
        for _ in range(10):
            h1 = rng.uniform(-3, 3, 5)
            h2 = rng.uniform(-3, 3, 5)
            r1, _ = r_functional(g, Q, FunctionOnSpace(space, h1))
            r2, _ = r_functional(g, Q, FunctionOnSpace(space, h2))
            rm, _ = r_functional(g, Q, FunctionOnSpace(space, 0.5 * (h1 + h2)))
            assert rm <= 0.5 * (r1 + r2) + 1e-9


def test_r_functional_kl_numeric_cross_check():
    rng = np.random.default_rng(7)
    space = OutcomeSpace.of_size(6)
    for _ in range(20):
        Q = make_dist(space, rng.random(6) + 0.05)
        h = FunctionOnSpace(space, rng.uniform(-3, 3, 6))
        closed, _ = r_functional(KL, Q, h)
        numeric, _ = r_functional_numeric(KL, Q, h)
        assert abs(closed - numeric) <= 1e-7


def test_intercept_bridge_identity():
    # sup_b (E_P[h] + b - E_Q[f*(h+b)]) equals E_P[h] - R(h); the left
    # side is maximized directly in one dimension here.
    rng = np.random.default_rng(8)
    space = OutcomeSpace.of_size(4)
    for name in ALL:
        g = builtin(name)
        for _ in range(5):
            P = make_dist(space, rng.random(4) + 0.05)
            Q = make_dist(space, rng.random(4) + 0.05)
            h = FunctionOnSpace(space, rng.uniform(-2, 2, 4))
            e_p = float(P.p @ h.values)

            def affine_objective(b):
                vals, fin = g.fstar_vec(h.values + b)
                if not np.all(fin[Q.p > 0]):
                    return -math.inf
                return e_p + b - float(Q.p @ np.where(fin, vals, 0.0))

            hi = g.fstar_box_upper(1e3) - float(np.max(h.values))
            lo_b, hi_b = ladder_bracket(affine_objective, -1e3, hi)
            _, direct = golden_max(affine_objective, lo_b, hi_b, tol=1e-12)
            r_val, _ = r_functional(g, Q, h)
            assert abs(direct - (e_p - r_val)) <= 1e-8


def test_r_functional_constant_far_from_zero(space2):
    # R(c) = c for every constant, however far from 0: the intercept b* is
    # near -c, so no fixed search box for b can hold it.
    Q = make_dist(space2, [1, 3])
    for name in ALL:
        g = builtin(name)
        for c in (-1e6, -3000.0, 3000.0, 1e6):
            val, _ = r_functional(g, Q, FunctionOnSpace(space2, [c, c]))
            assert val == pytest.approx(c, rel=1e-12), (name, c)


def test_variational_penalizes_zero_p_coordinate(space2):
    # q_i > 0, p_i = 0 contributes q_i * f(0) exactly.
    P = make_dist(space2, [0.0, 1.0])
    Q = make_dist(space2, [1, 3])
    for name in ALL:
        g = builtin(name)
        closed = df_closed(g, P, Q)
        var = df_variational_full(g, P, Q)
        assert closed.value.sign == var.value.sign
        if closed.value.is_finite:
            assert abs(float(var.value) - float(closed.value)) <= 1e-6


def test_variational_capped_coordinates_keep_their_values():
    # Coordinates with p_i = 0 sit at -T_CAP and add q_i f(0); coordinates
    # with q_i = 0 < p_i sit at +T_CAP and make the value +inf. Only the
    # remaining coordinates go through the 1-D solver.
    space = OutcomeSpace.of_size(4)
    P = make_dist(space, [0.0, 0.3, 0.3, 0.4])
    Q = make_dist(space, [0.2, 0.5, 0.3, 0.0])
    Q_in = make_dist(space, [0.2, 0.5, 0.2, 0.1])
    for name in ALL:
        g = builtin(name)
        var = df_variational_full(g, P, Q)
        assert var.value.is_pos_inf and var.capped
        assert var.attained_h.values[0] == -T_CAP and var.attained_h.values[3] == T_CAP
        var = df_variational_full(g, P, Q_in)
        assert var.capped and var.attained_h.values[0] == -T_CAP
        closed = df_closed(g, P, Q_in)
        if g.f_at_zero.is_finite:
            assert abs(float(var.value) - float(closed.value)) <= 1e-12
        else:
            assert var.value.is_pos_inf and closed.value.is_pos_inf


def _counting(fun):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return fun(x)

    return counted, calls


def test_bisect_sign_change_narrows_to_the_crossing():
    assert abs(bisect_sign_change(lambda b: b - 0.3, -1.0, 1.0, tol=1e-12) - 0.3) <= 1e-12


def test_r_functional_numeric_needs_few_derivative_calls():
    # A slowly moving discriminator, each intercept solved from scratch.
    # Plain bisection needs about 35 derivative calls per solve to reach
    # a 1e-10 bracket.
    P, Q, phi = random_instance(3, 6, 1)
    for name in ("js_gan", "squared_hellinger", "reverse_kl", "pearson_chi2"):
        counted, calls = _counting(builtin(name).fstar_prime_vec)
        g = dataclasses.replace(builtin(name), fstar_prime_vec=counted)
        for t in range(30):
            h = FunctionOnSpace(P.space, (0.2 + 0.02 * t) * phi.values[0])
            r_functional_numeric(g, Q, h)
        assert calls[0] / 30 <= 15, name


def test_golden_max_batch_one_call_per_step():
    peaks = np.array([-3.0, 0.25, 7.5])
    curv = np.array([1.0, 40.0, 0.01])

    def fun(t):
        return -curv * (t - peaks) ** 2

    counted, calls = _counting(fun)
    lo, hi = np.full(3, -10.0), np.full(3, 10.0)
    x, v = golden_max_batch(counted, lo, hi, tol=1e-12)
    n_iter = math.ceil(math.log(1e-12 / 20.0) / math.log((math.sqrt(5.0) - 1.0) / 2.0))
    # Two opening points, one new point per further step, one final value.
    assert calls[0] == n_iter + 2
    assert np.max(np.abs(x - peaks)) <= 1e-10
    assert np.array_equal(v, fun(x))
