import math

import numpy as np
import pytest

from fdual.discriminator import (
    FullSpace,
    LinearBall,
    QuadraticCoefficientPenalty,
    gap_conjugate,
)
from fdual.divergence import df_closed
import fdual.dual as dual_module
from fdual.dual import DualConfig, duality_gap, moment_projection, restricted_div_dual
from fdual.errors import ValidationError
from fdual.extreal import POS_INF, finite
from fdual.fgen import builtin, builtin_names
from fdual.primal import PrimalConfig, SolveReport, restricted_div_primal, regularized_div_primal
from fdual.space import (
    FeatureMap,
    OutcomeSpace,
    absolutely_continuous,
    feature_means,
    make_dist,
    random_instance,
)
from fdual.verify import _infeasible_projection_instance, duality_instance

KL = builtin("kl")
TV = builtin("total_variation")


def test_dual_p_equals_q(two_point):
    _, _, Q, phi = two_point
    rep = restricted_div_dual(KL, Q, Q, LinearBall(phi, 2, finite(1.0)))
    assert abs(float(rep.value)) <= 1e-12
    assert np.allclose(rep.pprime.p, Q.p)


def test_dual_full_space_recovers_divergence(two_point):
    _, P, Q, _ = two_point
    rep = restricted_div_dual(KL, P, Q, FullSpace(P.space))
    assert float(rep.value) == pytest.approx(float(df_closed(KL, P, Q).value), abs=1e-12)
    assert rep.pprime == P


def test_dual_full_space_not_dominated():
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [1, 1])
    Q = make_dist(space, [1, 0])
    rep = restricted_div_dual(KL, P, Q, FullSpace(space))
    assert rep.value == math.inf
    assert rep.status == "infeasible"


def test_dual_matches_primal_small_radius(two_point):
    _, P, Q, phi = two_point
    spec = LinearBall(phi, 2, finite(0.1))
    p_rep = restricted_div_primal(KL, P, Q, spec)
    d_rep = restricted_div_dual(KL, P, Q, spec, primal=p_rep)
    rel = abs(float(p_rep.value) - float(d_rep.value)) / max(1.0, abs(float(d_rep.value)))
    assert rel <= 1e-3


def test_moment_projection_two_point_oracle():
    # Hand oracle: 0.25 e^t / (0.75 + 0.25 e^t) = 0.5 gives t = ln 3 and
    # the projection (1/2, 1/2) with KL((.5,.5)||(.75,.25)).
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [1, 1])
    Q = make_dist(space, [3, 1])
    phi = FeatureMap(space, [[0.0, 1.0]])
    rep = moment_projection(KL, P, Q, phi)
    assert rep.converged
    assert rep.coefficients[0] == pytest.approx(math.log(3.0), abs=1e-8)
    assert np.max(np.abs(rep.pprime.p - 0.5)) <= 1e-9
    expected = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert float(rep.value) == pytest.approx(expected, abs=1e-9)
    assert float(rep.value) == pytest.approx(0.143841, abs=1e-6)


def test_moment_projection_already_matched(two_point):
    _, _, Q, phi = two_point
    rep = moment_projection(KL, Q, Q, phi)
    assert float(rep.value) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(rep.coefficients)) <= 1e-8
    assert np.allclose(rep.pprime.p, Q.p)


def test_moment_projection_infeasible():
    space = OutcomeSpace.of_size(2)
    P = make_dist(space, [1, 1])
    Q = make_dist(space, [1, 0])
    phi = FeatureMap(space, [[0.0, 1.0]])
    mp = moment_projection(KL, P, Q, phi)
    assert mp.status == "infeasible"
    assert mp.value == math.inf
    assert mp.coefficients is not None  # certificate direction
    pr = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, POS_INF))
    assert pr.value == math.inf


def test_moment_projection_residual_and_primal_match():
    for seed in range(5):
        P, Q, phi = random_instance(500 + seed, 4 + seed, 1 + seed % 3)
        mp = moment_projection(KL, P, Q, phi)
        target = feature_means(P, phi)
        assert float(np.max(np.abs(feature_means(mp.pprime, phi) - target))) <= 1e-8
        pr = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, POS_INF))
        assert abs(float(mp.value) - float(pr.value)) <= 1e-5


@pytest.mark.parametrize("p", [[0.1, 0.3, 0.6], [1.0, 0.0, 0.0]])
def test_kl_moment_projection_invariant_to_feature_scale(p):
    # Shrinking the features stretches the optimal tilt coefficients past
    # any fixed norm; reachable means must still converge, to the same
    # value up to the absolute moment tolerance. P = (1, 0, 0) sits on a
    # vertex of the hull: the value log 3 is approached along a ray and
    # never attained.
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, p)
    Q = make_dist(space, [1.0, 1.0, 1.0])
    values = []
    for scale in (1.0, 1e-2, 1e-4):
        phi = FeatureMap(space, [[0.0, scale, 2.0 * scale]])
        mp = moment_projection(KL, P, Q, phi)
        assert mp.status == "converged"
        gap = feature_means(mp.pprime, phi) - feature_means(P, phi)
        assert float(np.max(np.abs(gap))) <= 1e-8
        values.append(float(mp.value))
    assert max(values) - min(values) <= 1e-6


def test_generic_moment_projection_matches_primal():
    # Both sides run the same Newton solve, so the closed form checks the
    # projection independently: by Fenchel-Young D_f(P'||Q) lies above the
    # discriminator value by at least a . (E_P'[phi] - E_P[phi]), and P
    # itself is a feasible point when P << Q. The three-point instance
    # was reported infeasible for every non-KL generator although P
    # matches its own moments.
    space = OutcomeSpace.of_size(3)
    three_point = (
        make_dist(space, [0.42, 0.03, 0.55]),
        make_dist(space, [0.32, 0.55, 0.13]),
        FeatureMap(space, [[8.6, -6.1, 13.3]]),
    )
    for P, Q, phi in (random_instance(900, 7, 2), three_point):
        for name in ("pearson_chi2", "squared_hellinger", "js_gan", "reverse_kl"):
            g = builtin(name)
            mp = moment_projection(g, P, Q, phi)
            assert mp.converged
            assert mp.residual <= 1e-8
            pr = restricted_div_primal(g, P, Q, LinearBall(phi, 2, POS_INF))
            assert abs(float(mp.value) - float(pr.value)) <= 1e-5
            closed = float(df_closed(g, mp.pprime, Q).value)
            gap = feature_means(mp.pprime, phi) - feature_means(P, phi)
            slack = np.linalg.norm(mp.coefficients) * np.linalg.norm(gap) + 1e-12 * max(1.0, closed)
            assert -slack <= closed - float(mp.value) <= 1e-9
            if absolutely_continuous(P, Q):
                d_pq = float(df_closed(g, P, Q).value)
                assert float(mp.value) <= d_pq + 1e-12 * max(1.0, d_pq)


def test_total_variation_moment_projection_converges():
    # f* of total variation has kinks, so its conjugate-slope tilt is not
    # unique; the tilt of the smoothed conjugate matches the moments.
    g = builtin("total_variation")
    for s in range(6):
        P, Q, phi = random_instance(900 + s, 5 + s, 1 + s % 3)
        mp = moment_projection(g, P, Q, phi)
        assert mp.converged
        assert mp.residual <= 1e-8
        assert float(mp.value) == pytest.approx(float(df_closed(g, mp.pprime, Q).value), abs=1e-12)
        assert float(mp.value) <= float(df_closed(g, P, Q).value)


def test_total_variation_moment_projection_infeasible():
    # Target means above the hull of supp Q: the smoothed stages' supremum
    # grows along a ray.
    mp = moment_projection(builtin("total_variation"), *_infeasible_projection_instance(0, 0))
    assert mp.status == "infeasible"
    assert mp.value == math.inf


def _rounding(P, phi, value):
    # The dual's rounding bound on a gap below 0.
    return 8.0 * (P.space.n + phi.k) * np.finfo(float).eps * max(1.0, abs(float(value)))


def test_dual_r_infinite_delegates_to_projection(two_point):
    # The moment projection reported route newton from a solve of its own.
    # Now it is the standalone dual on LinearBall(phi, 2, inf): the tilt of
    # the primal solved at tol 1e-10, moved onto the means of P on its
    # support, with the primal's coefficients and iterations.
    _, P2, Q2, phi2 = two_point
    for g, (P, Q, phi) in ((KL, (P2, Q2, phi2)), (TV, random_instance(3, 3, 1))):
        spec = LinearBall(phi, 2, POS_INF)
        pr = restricted_div_primal(g, P, Q, spec, PrimalConfig(tol=1e-10))
        for rep in (moment_projection(g, P, Q, phi), restricted_div_dual(g, P, Q, spec)):
            assert (rep.route, rep.status, rep.iterations) == ("primal_tilt", "converged", pr.iterations)
            assert rep.coefficients.tolist() == pr.coefficients.tolist()
            assert np.all(rep.pprime.p[pr.pprime.p == 0.0] == 0.0)
            assert np.max(np.abs(rep.pprime.p - pr.pprime.p)) <= 1e-9
            assert rep.value == df_closed(g, rep.pprime, Q).value
            assert rep.residual == float(np.linalg.norm(feature_means(P, phi) - feature_means(rep.pprime, phi)))
            assert rep.residual <= 1e-15
            assert rep.gap_estimate == rep.value - pr.value >= -_rounding(P, phi, rep.value)


def test_reverse_kl_dual_at_infinite_radius_bounds_the_primal():
    # The primal's tilt misses the means by its tolerance, and scored as it
    # stood it lay 1.2e-7 relative below the primal value here.
    _, P, Q, phi, _ = duality_instance(2, 24)
    gr = duality_gap(builtin("reverse_kl"), P, Q, LinearBall(phi, 2, POS_INF))
    assert gr.primal.status == gr.dual.status == "converged"
    assert float(gr.dual_value) >= float(gr.primal_value)
    assert gr.gap == float(gr.dual_value) - float(gr.primal_value) <= 1e-8 * float(gr.dual_value)


@pytest.mark.parametrize("s, i", [(1, 4), (1, 13), (2, 27)])
def test_total_variation_dual_at_infinite_radius_certifies(s, i):
    # The primal at tol 1e-8 hands a tilt that misses the means by 1.0e-8
    # to 1.6e-8; a 1e-8 residual rule read these certified gaps as
    # not_converged. The dual meets the means before scoring.
    _, P, Q, phi, _ = duality_instance(s, i)
    gr = duality_gap(TV, P, Q, LinearBall(phi, 2, POS_INF))
    assert gr.dual.status == "converged"
    assert gr.gap >= -_rounding(P, phi, gr.dual_value)
    assert gr.rel_gap <= DualConfig().tol


def test_dual_keeps_a_tilt_it_cannot_move_onto_the_means():
    # P' = (0.01, 0.98, 0.01) has mean 1 and variance 0.02. Moving it onto
    # the mean 0.03 of P scales the last mass by 1 - 48.5, so the dual
    # keeps P', scored at the primal's own value, and does not certify it.
    space = OutcomeSpace.of_size(3)
    P, Q = make_dist(space, [0.98, 0.01, 0.01]), make_dist(space, [1, 1, 1])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    pp = make_dist(space, [0.01, 0.98, 0.01])
    primal = SolveReport(value=df_closed(KL, pp, Q).value, coefficients=np.zeros(1), intermediate=pp)
    rep = restricted_div_dual(KL, P, Q, LinearBall(phi, 2, POS_INF), primal=primal)
    assert (rep.status, rep.gap_estimate) == ("not_converged", 0.0)
    assert rep.pprime is pp
    assert rep.residual == pytest.approx(0.97, abs=1e-15)


def test_dual_minimizer_dominated():
    # Partial-support Q: the minimizing distribution stays inside supp Q.
    P, Q0, phi = random_instance(43, 6, 2)
    masses = Q0.p.copy()
    masses[-1] = 0.0
    Q = make_dist(Q0.space, masses)
    rep = restricted_div_dual(KL, P, Q, LinearBall(phi, 2, finite(1.0)))
    assert absolutely_continuous(rep.pprime, Q)
    assert rep.pprime.p[-1] == 0.0


def test_duality_gap_identical(two_point):
    _, _, Q, phi = two_point
    gr = duality_gap(KL, Q, Q, LinearBall(phi, 2, finite(1.0)))
    assert float(gr.primal_value) == pytest.approx(0.0, abs=1e-10)
    assert float(gr.dual_value) == pytest.approx(0.0, abs=1e-10)
    assert abs(gr.gap) <= 1e-10


def test_duality_gap_small_instances():
    for seed, name in enumerate(["kl", "pearson_chi2", "squared_hellinger", "js_gan"]):
        g = builtin(name)
        P, Q, phi = random_instance(600 + seed, 5, 2)
        gr = duality_gap(g, P, Q, LinearBall(phi, 2, finite((0.1, 1.0, 10.0)[seed % 3])))
        assert gr.rel_gap <= 1e-3
        assert gr.gap >= -1e-6
        assert max(gr.primal.value_log) == float(gr.primal_value)


def _wide_instance(seed, drop=None):
    # n = 4096, k = 8, P = Q tilted along two features so far that the
    # gap is not trivial at this size; ``drop`` leaves an atom out of supp Q.
    rng = np.random.default_rng(seed)
    q = rng.gamma(2.0, size=4096)
    phi = rng.uniform(-1.0, 1.0, size=(8, 4096))
    p = q * np.exp(1.3 * (phi[0] + 0.5 * phi[1] ** 2))
    if drop is not None:
        q[drop] = 0.0
    space = OutcomeSpace.of_size(4096)
    return make_dist(space, p), make_dist(space, q), FeatureMap(space, phi)


@pytest.mark.parametrize("name, drop", [("kl", None), ("squared_hellinger", None), ("js_gan", None),
                                        ("kl", 17)])
def test_duality_gap_certifies_at_large_n(name, drop):
    P, Q, phi = _wide_instance(11, drop)
    gr = duality_gap(builtin(name), P, Q, LinearBall(phi, 2, finite(1.0)))
    assert gr.primal.status == "converged"
    assert float(gr.primal_value) > 0.01
    assert gr.rel_gap <= DualConfig().tol


def test_duality_gap_quadratic_regularizer(two_point):
    # Soft shift-invariant penalty: the same equality holds beyond
    # indicator regularizers.
    _, P, Q, phi = two_point
    reg = QuadraticCoefficientPenalty(phi, 0.8)
    gr = duality_gap(KL, P, Q, reg)
    assert gr.rel_gap <= 1e-3
    assert gr.gap >= -1e-6
    assert max(gr.primal.value_log) == float(gr.primal_value)
    p_rep = regularized_div_primal(KL, P, Q, reg)
    assert float(gr.primal_value) == pytest.approx(float(p_rep.value), abs=1e-10)


def test_dual_value_bounds_the_primal_on_every_route():
    # The dual makes no search and keeps no log: its value is one upper
    # bound, at least every value the primal logs, on every route.
    P, Q, phi = random_instance(71, 8, 2)
    g = builtin("pearson_chi2")
    for spec, route in ((FullSpace(P.space), "closed_form"), (LinearBall(phi, 2, finite(1.0)), "primal_tilt"),
                        (LinearBall(phi, 2, POS_INF), "primal_tilt")):
        gr = duality_gap(g, P, Q, spec)
        assert (gr.dual.route, gr.dual.status, gr.dual.value_log) == (route, "converged", ())
        assert max(gr.primal.value_log) == float(gr.primal_value)
        assert gr.gap >= -_rounding(P, phi, gr.dual_value)


def test_dual_config_validation():
    with pytest.raises(Exception):
        DualConfig(tol=-1.0)


@pytest.mark.parametrize("tol", [math.nan, 0.0, math.inf])
def test_dual_config_rejects_bad_tolerances(tol):
    # An infinite tol passed, and certified any gap: rel_gap <= inf.
    with pytest.raises(ValidationError, match="^tol must be positive"):
        DualConfig(tol=tol)


def _count_moment_projections(monkeypatch):
    calls = []
    original = dual_module.moment_projection

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dual_module, "moment_projection", counted)
    return calls


def test_duality_gap_dropped_outcome_hellinger_certified():
    # squared_hellinger, n=5, k=3, R=10, last outcome of Q dropped: mirror
    # descent alone ends at its iteration cap with a 2e-2 relative gap.
    name, P, Q, phi, radius = duality_instance(1, 14)
    gr = duality_gap(builtin(name), P, Q, LinearBall(phi, 2, finite(radius)))
    assert gr.dual.status == "converged"
    assert gr.rel_gap <= 1e-3


def test_duality_gap_certifies_from_primal_tilt(monkeypatch):
    calls = _count_moment_projections(monkeypatch)
    for i in range(20):
        name, P, Q, phi, radius = duality_instance(2025, i)
        gr = duality_gap(builtin(name), P, Q, LinearBall(phi, 2, finite(radius)))
        assert gr.rel_gap <= 1e-3
        assert gr.dual.status == "converged"
        assert gr.dual.iterations == 0
        assert float(np.sum(gr.dual.pprime.p)) == pytest.approx(1.0, abs=1e-12)
        assert absolutely_continuous(gr.dual.pprime, Q)
    assert calls == []


def test_duality_gap_quadratic_penalty_certifies_from_primal_tilt():
    P, Q, phi = random_instance(31, 6, 2)
    for name in ("kl", "pearson_chi2", "squared_hellinger", "js_gan"):
        gr = duality_gap(builtin(name), P, Q, QuadraticCoefficientPenalty(phi, 0.3))
        assert gr.rel_gap <= 1e-3
        assert gr.dual.status == "converged"
        assert gr.dual.iterations == 0


def test_total_variation_gap_certifies_from_primal_tilt(monkeypatch):
    # f* of total variation has kinks; the primal solves its smoothing and
    # the smoothed tilt certifies the gap, with no moment projection or
    # descent. Multistart ascent ended 2.1e-3 apart here, not converged.
    calls = _count_moment_projections(monkeypatch)
    P, Q, phi = random_instance(7, 6, 2)
    gr = duality_gap(builtin("total_variation"), P, Q, LinearBall(phi, 2, finite(1.0)))
    assert gr.primal.status == "converged"
    assert gr.dual.route == "primal_tilt" and gr.dual.iterations == 0
    assert gr.rel_gap <= 1e-4
    assert calls == []


def test_kl_one_ball_certifies_from_primal_tilt():
    # Projected ascent stopped at its 10 000-iteration cap at 1.119e-4
    # here, and mirror descent left a 1.1e-4 relative gap; the log-barrier
    # path reaches 2.2465e-4 and its tilt certifies it.
    P, Q, phi = random_instance(505, 3, 2)
    gr = duality_gap(KL, P, Q, LinearBall(phi, 1, finite(5.0)))
    assert gr.primal.status == "converged"
    assert gr.dual.route == "primal_tilt" and gr.dual.iterations == 0
    assert gr.rel_gap <= 1e-8
    assert float(gr.primal_value) == pytest.approx(2.2465e-4, rel=1e-4)


@pytest.mark.parametrize(
    "name, seed, n, k, spec_of",
    [
        ("total_variation", 601, 4, 2, lambda phi: LinearBall(phi, 2, finite(10.0))),
        ("total_variation", 602, 5, 3, lambda phi: LinearBall(phi, 2, finite(1.0))),
        ("total_variation", 609, 7, 1, lambda phi: LinearBall(phi, 2, finite(10.0))),
        ("total_variation", 601, 4, 2, lambda phi: LinearBall(phi, 1, finite(1.0))),
        ("total_variation", 604, 7, 2, lambda phi: LinearBall(phi, 1, finite(1.0))),
        ("total_variation", 601, 4, 2, lambda phi: LinearBall(phi, math.inf, finite(1.0))),
        ("total_variation", 601, 4, 2, lambda phi: QuadraticCoefficientPenalty(phi, 0.1)),
        ("total_variation", 602, 5, 3, lambda phi: QuadraticCoefficientPenalty(phi, 0.1)),
        ("kl", 505, 3, 2, lambda phi: LinearBall(phi, math.inf, finite(5.0))),
        ("js_gan", 517, 3, 2, lambda phi: LinearBall(phi, 1, finite(5.0))),
        ("reverse_kl", 521, 3, 2, lambda phi: LinearBall(phi, math.inf, finite(0.05))),
    ],
)
def test_nonsmooth_and_polyhedral_gaps_certify_from_primal_tilt(name, seed, n, k, spec_of):
    # Cases of the total-variation and 1- and inf-ball surveys: the primal's
    # tilt certifies each gap with no dual iteration.
    P, Q, phi = random_instance(seed, n, k)
    gr = duality_gap(builtin(name), P, Q, spec_of(phi))
    assert gr.primal.status == "converged" and gr.primal.route == "newton"
    assert gr.dual.route == "primal_tilt" and gr.dual.iterations == 0
    assert gr.rel_gap <= 1e-4
    assert gr.gap >= -1e-12
    assert max(gr.primal.value_log) == float(gr.primal_value)


def _dual(g, seed, n, k, spec_of):
    P, Q, phi = random_instance(seed, n, k)
    return restricted_div_dual(g, P, Q, spec_of(phi))


def _gap_dual(g, seed, n, k, spec_of):
    P, Q, phi = random_instance(seed, n, k)
    return duality_gap(g, P, Q, spec_of(phi)).dual


ROUTES = {
    "primal_tilt": lambda: _gap_dual(KL, 504, 2, 1, lambda phi: LinearBall(phi, 2, finite(0.5))),
    "closed_form": lambda: _dual(KL, 3, 3, 1, lambda phi: FullSpace(phi.space)),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_report_names_its_route(route):
    # The dual names the distribution it returns.
    assert ROUTES[route]().route == route


def test_infinite_radius_gap_solves_the_primal_once(monkeypatch):
    # The dual ran the moment projection, a second primal solve from a = 0,
    # where it now scores the tilt of the primal it is handed.
    calls = []
    original = dual_module.restricted_div_primal

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dual_module, "restricted_div_primal", counted)
    _, P, Q, phi, _ = duality_instance(2, 8)
    names = builtin_names()
    for name in names:
        gr = duality_gap(builtin(name), P, Q, LinearBall(phi, 2, POS_INF))
        assert gr.dual.route == "primal_tilt" and gr.dual.status == "converged"
        assert gr.dual.coefficients is gr.primal.coefficients
        assert gr.rel_gap <= DualConfig().tol
    assert len(calls) == len(names)


def test_gap_of_an_unreachable_target_is_zero():
    # Means outside the hull of supp Q: the supremum runs along a ray and
    # the dual is infeasible, both +inf, a gap of 0.
    P, Q, phi = _infeasible_projection_instance(0, 0)
    gr = duality_gap(KL, P, Q, LinearBall(phi, 2, POS_INF))
    assert (gr.primal.status, gr.dual.status) == ("unbounded", "infeasible")
    assert gr.primal_value == gr.dual_value == math.inf
    assert (gr.gap, gr.rel_gap) == (0.0, 0.0)
    assert gr.dual.coefficients.tolist() == [1.0]


def _p_equals_q():
    _, Q, phi = random_instance(501, 3, 2)
    return Q, Q, LinearBall(phi, 1, finite(0.05))


def _p_wide_ball():
    P, Q, phi = random_instance(504, 2, 1)
    return P, Q, LinearBall(phi, 2, finite(5.0))


@pytest.mark.parametrize("instance", [_p_equals_q, _p_wide_ball], ids=["p-equals-q", "p-on-wide-ball"])
def test_dual_scores_the_primal_tilt_alone(instance):
    # Q itself (P = Q) and P (a ball wide enough to reach it) scored below
    # the tilt here and were returned in its place; the tilt certifies both.
    P, Q, spec = instance()
    gr = duality_gap(KL, P, Q, spec)
    assert (gr.dual.route, gr.dual.status, gr.dual.iterations) == ("primal_tilt", "converged", 0)
    assert gr.dual.pprime is gr.primal.pprime
    gap_term = gap_conjugate(spec, feature_means(P, spec.phi) - feature_means(gr.dual.pprime, spec.phi))
    assert float(gr.dual_value) == float(df_closed(KL, gr.dual.pprime, Q).value) + gap_term


@pytest.mark.parametrize(
    "g, seed, n, k, spec_of",
    [
        (KL, 503, 5, 2, lambda phi: LinearBall(phi, 2, finite(5.0))),
        (KL, 504, 2, 1, lambda phi: LinearBall(phi, 2, finite(0.5))),
        (KL, 1, 3, 1, lambda phi: LinearBall(phi, 2, finite(1.0))),
        (TV, 704, 2, 1, lambda phi: QuadraticCoefficientPenalty(phi, 0.1)),
    ],
    ids=["kl-503-R5", "kl-504-R0.5", "kl-1-R1", "tv-704-quad0.1"],
)
def test_standalone_dual_certifies_at_primal_tilt(g, seed, n, k, spec_of):
    # Called without a primal report, the dual solves the primal itself and
    # scores its tilt, with no search of its own.
    P, Q, phi = random_instance(seed, n, k)
    spec = spec_of(phi)
    solve = regularized_div_primal if isinstance(spec, QuadraticCoefficientPenalty) else restricted_div_primal
    primal = float(solve(g, P, Q, spec).value)
    rep = restricted_div_dual(g, P, Q, spec)
    assert (rep.route, rep.status, rep.iterations) == ("primal_tilt", "converged", 0)
    dual = float(rep.value)
    assert primal <= dual <= primal + DualConfig().tol * max(1.0, abs(dual))
    assert rep.gap_estimate == dual - primal


def test_uncertified_tilt_is_reported_not_converged():
    # One primal Newton step leaves its tilt 2.9e-2 above the primal value.
    # The dual reports that gap and searches no further; its value is G at
    # the distribution it returns, still an upper bound on the optimum.
    name, P, Q, phi, radius = duality_instance(1, 7)
    g, spec = builtin(name), LinearBall(phi, 2, finite(radius))
    gr = duality_gap(g, P, Q, spec, primal_cfg=PrimalConfig(max_iters=1))
    dual = float(gr.dual_value)
    assert gr.primal.status == "not_converged"
    assert (gr.dual.status, gr.dual.route, gr.dual.iterations) == ("not_converged", "primal_tilt", 0)
    assert gr.dual.gap_estimate == dual - float(gr.primal_value)
    assert gr.dual.gap_estimate > DualConfig().tol
    Pp = gr.dual.pprime
    gap_term = gap_conjugate(spec, feature_means(P, phi) - feature_means(Pp, phi))
    assert dual == float(df_closed(g, Pp, Q).value) + gap_term
    assert dual >= float(restricted_div_primal(g, P, Q, spec).value)
