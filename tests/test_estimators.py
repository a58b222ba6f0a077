import json
import math
import warnings

import numpy as np
import pytest

from fdual import estimators, primal
from fdual.cli import _jsonify
from fdual.discriminator import LinearBall
from fdual.divergence import kl_bar
from fdual.dual import restricted_div_dual
from fdual.errors import ValidationError
from fdual.estimators import (
    CrossContext,
    ExpFamily,
    FitConfig,
    FullSimplex,
    family_member,
    fit_gmm,
    fit_linear_fgan,
    fit_mle,
)
from fdual.extreal import POS_INF, finite
from fdual.fgen import builtin
from fdual.primal import restricted_div_primal
from fdual.space import (
    Dist,
    FeatureMap,
    OutcomeSpace,
    feature_means,
    make_dist,
    random_instance,
)

KL = builtin("kl")


@pytest.fixture
def three_point():
    space = OutcomeSpace.of_size(3)
    base = make_dist(space, [1, 1, 1])
    return space, base


def tv_dist(a: Dist, b: Dist) -> float:
    return 0.5 * float(np.sum(np.abs(a.p - b.p)))


def test_family_member_full_simplex():
    # The full simplex has no parameter: its fits are closed form.
    with pytest.raises(ValidationError, match="full simplex has no parameter"):
        family_member(FullSimplex(OutcomeSpace.of_size(3)), np.array([0.0, 0.0, 0.0]))


def test_family_member_exp_family(three_point):
    space, base = three_point
    psi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    member = family_member(fam, np.array([0.0]))
    assert np.allclose(member.p, base.p)
    with pytest.raises(ValidationError, match=r"needs shape \(1,\)"):
        family_member(fam, np.zeros(2))


def _indicators(space: OutcomeSpace) -> ExpFamily:
    """The tilts of the uniform distribution by the first n - 1 indicators: the open simplex."""
    n = space.n
    return ExpFamily(make_dist(space, np.ones(n)), FeatureMap(space, np.eye(n)[:-1]))


def test_exp_family_needs_full_support(three_point):
    space, _ = three_point
    partial = make_dist(space, [1, 1, 0])
    with pytest.raises(ValidationError):
        ExpFamily(partial, FeatureMap(space, [[0.0, 1.0, 2.0]]))


def test_mle_full_simplex_returns_data(three_point):
    space, _ = three_point
    data = make_dist(space, [2, 5, 3])
    rep = fit_mle(FullSimplex(space), data)
    assert rep.q_star == data
    assert rep.objective == 0.0


def test_mle_saturated_family_recovers_data():
    space = OutcomeSpace.of_size(2)
    fam = ExpFamily(make_dist(space, [3, 1]), FeatureMap(space, [[0.0, 1.0]]))
    data = make_dist(space, [0.3, 0.7])
    rep = fit_mle(fam, data)
    assert tv_dist(rep.q_star, data) <= 1e-9


def test_mle_moment_matching(three_point):
    # Tilted fit matches the data's psi-means; verified directly.
    space, base = three_point
    psi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.5, 0.25, 0.25])
    rep = fit_mle(fam, data)
    fitted_mean = float(feature_means(rep.q_star, psi)[0])
    assert fitted_mean == pytest.approx(0.75, abs=1e-8)
    assert rep.objective == pytest.approx(float(kl_bar(data, rep.q_star).value), abs=1e-12)


def test_mle_psi_means_on_face_report_limit_member(three_point):
    # Data at the vertex psi = 0 of the family's hull: the likelihood keeps
    # rising as theta -> -inf, so no parameter is reported, and q_star is
    # the limit member, exactly.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 2.0]]))
    rep = fit_mle(fam, make_dist(space, [1.0, 0.0, 0.0]))
    assert rep.theta is None
    assert any("no maximum-likelihood parameter" in note for note in rep.notes)
    assert np.array_equal(rep.q_star.p, [1.0, 0.0, 0.0])
    assert rep.objective == 0.0


def test_gmm_feasible_moments_reach_zero(three_point):
    space, base = three_point
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, phi)
    data = make_dist(space, [0.5, 0.25, 0.25])
    rep = fit_gmm(fam, data, phi)
    assert rep.objective <= 1e-6


def test_gmm_two_point_tilt():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    fam = ExpFamily(make_dist(space, [3, 1]), phi)
    data = make_dist(space, [1, 1])
    rep = fit_gmm(fam, data, phi)
    assert np.max(np.abs(rep.q_star.p - 0.5)) <= 1e-7


def test_gmm_full_simplex_maxent_representative(three_point):
    space, _ = three_point
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_gmm(FullSimplex(space), data, phi)
    assert rep.objective <= 1e-9
    # Among moment-matched distributions the returned one has maximum
    # entropy, hence at least the data's own entropy.
    ent = lambda p: -float(np.sum(p[p > 0] * np.log(p[p > 0])))
    assert ent(rep.q_star.p) >= ent(data.p) - 1e-9


def test_gmm_full_simplex_means_on_face(three_point):
    # Data at the vertex phi = 0 of the features' hull: no tilt of the
    # uniform distribution matches it, so no parameter is reported, and
    # q_star is the limit on that face, exactly.
    space, _ = three_point
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    rep = fit_gmm(FullSimplex(space), make_dist(space, [1.0, 0.0, 0.0]), phi)
    assert rep.theta is None
    assert any("no tilt of the uniform distribution" in note for note in rep.notes)
    assert np.array_equal(rep.q_star.p, [1.0, 0.0, 0.0])
    assert rep.objective == 0.0


def test_gmm_mean_outside_family_hull(three_point):
    # The tilt family q ~ (1, e^t, 1) has constant phi-mean 1, so the
    # objective equals the distance from the data mean to that hull.
    # Grid-search oracle over the 1-D parameter verifies the distance.
    space, base = three_point
    psi = FeatureMap(space, [[0.0, 1.0, 0.0]])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_gmm(fam, data, phi)
    grid = np.arange(-10.0, 10.0, 1e-3)
    e = np.exp(grid)
    means = (e + 2.0) / (2.0 + e)
    oracle = float(np.min(np.abs(1.1 - means)))
    assert oracle == pytest.approx(0.1, abs=1e-12)
    assert rep.objective == pytest.approx(oracle, abs=1e-9)


def test_fgan_tiny_radius_everything_optimal(three_point):
    space, base = three_point
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_linear_fgan(fam, data, KL, phi, finite(1e-9), FitConfig(starts=2, max_iters=40))
    assert 0.0 <= rep.objective <= 1e-8


def test_fgan_full_simplex_matches_moments():
    # The fit is the maximum-entropy moment-matched member (residual 2.3e-11
    # here, 5.7e-11 by the descent it replaced), where the divergence is 0.
    P, _, phi = random_instance(5, 6, 2)
    rep = fit_linear_fgan(FullSimplex(P.space), P, KL, phi, POS_INF)
    residual = float(np.max(np.abs(feature_means(rep.q_star, phi) - feature_means(P, phi))))
    assert residual <= 1e-9
    assert rep.objective <= 1e-15


def test_fgan_spanning_features_equal_mle():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    fam = ExpFamily(make_dist(space, [3, 1]), phi)
    data = make_dist(space, [0.3, 0.7])
    rep_f = fit_linear_fgan(fam, data, KL, phi, POS_INF)
    rep_m = fit_mle(fam, data)
    assert tv_dist(rep_f.q_star, rep_m.q_star) <= 1e-6


def test_fgan_mismatch_instance_cross_table(three_point):
    space, base = three_point
    psi = FeatureMap(space, [[0.0, 1.0, 0.0]])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.2, 0.5, 0.3])
    cfg = FitConfig(starts=3, max_iters=60)
    rep = fit_linear_fgan(fam, data, KL, phi, finite(1.0), cfg)
    assert set(rep.cross) == {"mle", "gmm", "fgan"}
    assert rep.cross["fgan"] == pytest.approx(rep.objective, abs=1e-9)
    # Dual-form recomputation of the fitted objective.
    d_rep = restricted_div_dual(KL, data, rep.q_star, LinearBall(phi, 2, finite(1.0)))
    rel = abs(float(d_rep.value) - rep.objective) / max(1.0, abs(float(d_rep.value)))
    assert rel <= 1e-3
    # The adversarial fit sits away from both classical fits.
    rep_m = fit_mle(fam, data)
    rep_g = fit_gmm(fam, data, phi, cfg)
    assert tv_dist(rep.q_star, rep_m.q_star) >= 1e-3
    assert tv_dist(rep.q_star, rep_g.q_star) >= 1e-3


def test_fgan_iteration_cap_noted(three_point):
    # One outer iteration is too few for any start to stop on its own.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_linear_fgan(fam, data, KL, phi, finite(1.0), FitConfig(starts=2, max_iters=1))
    assert rep.trajectory["iterations"] == 2
    assert any("max_iters=1;" in note for note in rep.notes)


def test_gmm_iteration_cap_noted_as_the_fgan_fit_notes_it():
    # fit_gmm dropped the count of starts at the cap, and its notes were empty.
    P, Q, phi = random_instance(11, 5, 2)
    fam = ExpFamily(Q, random_instance(12, 5, 1)[2])
    cfg = FitConfig(max_iters=1)
    note = "every start ran to max_iters=1; theta is where the descent stopped, not a located minimiser"
    assert note in fit_gmm(fam, P, phi, cfg).notes
    assert note in fit_linear_fgan(fam, P, KL, phi, 1.0, cfg).notes
    assert not any("max_iters" in n for n in fit_gmm(fam, P, phi).notes)


def test_fgan_inner_solve_converges_on_finite_ball(three_point):
    # The KL 2-ball Newton path reaches estimators.INNER_TOL, which the
    # first-order ascent could not.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_linear_fgan(fam, data, KL, phi, finite(1.0), FitConfig(starts=2, max_iters=20))
    assert rep.trajectory["inner_status"] == "converged"


def test_fgan_converged_fit_has_no_cap_note():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    fam = ExpFamily(make_dist(space, [3, 1]), phi)
    rep = fit_linear_fgan(fam, make_dist(space, [0.3, 0.7]), KL, phi, POS_INF)
    assert not any("max_iters" in note for note in rep.notes)


def test_fit_reports_deterministic():
    space = OutcomeSpace.of_size(3)
    base = make_dist(space, [1, 1, 1])
    psi = FeatureMap(space, [[0.0, 1.0, 0.0]])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.2, 0.5, 0.3])
    cfg = FitConfig(seed=11, starts=3, max_iters=40)

    def snapshot():
        rep = fit_gmm(fam, data, phi, cfg)
        payload = {
            "theta": rep.theta,
            "q": rep.q_star.p,
            "objective": rep.objective,
            "cross": rep.cross,
            "trajectory": rep.trajectory,
        }
        return json.dumps(_jsonify(payload), sort_keys=True)

    assert snapshot() == snapshot()


def test_gmm_flat_objective_notes(three_point):
    # phi-means are constant over this family, so every member ties.
    space, base = three_point
    psi = FeatureMap(space, [[0.0, 1.0, 0.0]])
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    fam = ExpFamily(base, psi)
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_gmm(fam, data, phi)
    assert rep.objective == pytest.approx(0.1, abs=1e-9)
    assert rep.notes


class _Objective(Exception):
    pass


def _evaluation_hook(monkeypatch, fit, fam, *args):
    """The evaluation hook ``fit`` hands to its descent, before any evaluation."""

    def capture(fam, evaluate, *rest, **kwargs):
        raise _Objective(evaluate)

    monkeypatch.setattr(estimators, "_multistart_descend", capture)
    with pytest.raises(_Objective) as caught:
        fit(fam, *args)
    monkeypatch.undo()
    return caught.value.args[0]


def _outer_objective(monkeypatch, fit, fam, *args):
    """theta -> (value, gradient, Hessian) of the objective ``fit`` hands to its descent,
    as its evaluation hook gives it for a member alone: exactly."""
    evaluate = _evaluation_hook(monkeypatch, fit, fam, *args)

    def objective(theta):
        value, grad, hess, exact = evaluate(family_member(fam, theta))
        assert exact
        return value, grad, hess

    return objective


def _worst_fd_disagreement(fun, theta, h=1e-5):
    """max |exact - central difference| relative to max |central difference|."""
    _, grad, _ = fun(theta)
    fd = np.empty_like(theta)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd[j] = (fun(theta + e)[0] - fun(theta - e)[0]) / (2.0 * h)
    return float(np.max(np.abs(grad - fd)) / np.max(np.abs(fd)))


def _worst_hessian_disagreement(fun, theta, h=1e-5):
    """As above, for the Hessian against central differences of the exact gradient."""
    _, _, hess = fun(theta)
    fd = np.empty_like(hess)
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        fd[:, j] = (fun(theta + e)[1] - fun(theta - e)[1]) / (2.0 * h)
    return float(np.max(np.abs(hess - fd)) / np.max(np.abs(fd)))


SMOOTH = ("kl", "reverse_kl", "js_gan", "pearson_chi2", "squared_hellinger")


def test_outer_gradients_match_central_differences(monkeypatch):
    # Danskin's gradient of the adversarial objective and the moment gap's
    # Jacobian against central differences, at random parameters.
    rng = np.random.default_rng(0)
    worst = 0.0
    for s, name in enumerate(SMOOTH):
        P, Q, phi = random_instance(50 + s, 3 + s % 3, 2)
        psi = FeatureMap(P.space, rng.uniform(-1.0, 1.0, size=(1 + s % 2, P.space.n)))
        for fam in (_indicators(P.space), ExpFamily(Q, psi)):
            for radius in (finite(0.5), finite(2.0), POS_INF):
                fun = _outer_objective(monkeypatch, fit_linear_fgan, fam, P, builtin(name), phi, radius)
                theta = rng.normal(size=fam.psi.k)
                worst = max(worst, _worst_fd_disagreement(fun, theta))
        fun = _outer_objective(monkeypatch, fit_gmm, ExpFamily(Q, psi), P, phi)
        worst = max(worst, _worst_fd_disagreement(fun, rng.normal(size=psi.k)))
    assert worst <= 1e-6


def test_outer_hessians_match_central_differences(monkeypatch):
    # The envelope Hessian of the adversarial objective and the moment gap's
    # Hessian against central differences of their exact gradients, for the
    # five smooth generators, two tilt families and three radii.
    rng = np.random.default_rng(0)
    worst = 0.0
    active = 0
    for s, name in enumerate(SMOOTH):
        P, Q, phi = random_instance(50 + s, 3 + s % 3, 2)
        psi = FeatureMap(P.space, rng.uniform(-1.0, 1.0, size=(1 + s % 2, P.space.n)))
        for fam in (_indicators(P.space), ExpFamily(Q, psi)):
            for radius in (finite(0.5), finite(2.0), POS_INF):
                g = builtin(name)
                fun = _outer_objective(monkeypatch, fit_linear_fgan, fam, P, g, phi, radius)
                theta = rng.normal(size=fam.psi.k)
                worst = max(worst, _worst_hessian_disagreement(fun, theta))
                inner = restricted_div_primal(g, P, family_member(fam, theta), LinearBall(phi, 2, radius))
                active += radius.is_finite and np.linalg.norm(inner.coefficients) >= float(radius) * (1 - 1e-9)
        fun = _outer_objective(monkeypatch, fit_gmm, ExpFamily(Q, psi), P, phi)
        worst = max(worst, _worst_hessian_disagreement(fun, rng.normal(size=psi.k)))
    assert active >= 10
    assert worst <= 1e-6


def test_trial_hessian_matches_the_exact_envelope_on_the_sphere(monkeypatch):
    # KL at R = 0.01, where the inner optimum lies on the sphere. A trial
    # point takes one inner Newton step from the base's discriminator moved
    # with theta, which lies inside the sphere; the envelope Hessian read
    # there took the interior curvature: -7.41e-4 against the exact -2.10e-4.
    P, Q, phi = random_instance(4201, 6, 2)
    fam = ExpFamily(Q, FeatureMap(P.space, random_instance(4301, 6, 1)[2].values))
    base, member = family_member(fam, np.array([-0.3])), family_member(fam, np.array([-0.1]))
    radius = 0.01
    inner = restricted_div_primal(KL, P, member, LinearBall(phi, 2, radius))
    assert np.linalg.norm(inner.coefficients) == pytest.approx(radius, rel=1e-12)
    trial = _evaluation_hook(monkeypatch, fit_linear_fgan, fam, P, KL, phi, radius)
    trial(base)
    value, grad, hess, exact = trial(member, base=base, step=np.array([0.2]), exact=False)
    assert not exact
    exact_value, exact_grad, exact_hess = _outer_objective(monkeypatch, fit_linear_fgan, fam, P, KL, phi,
                                                           radius)(np.array([-0.1]))
    assert value == pytest.approx(exact_value, rel=1e-6)
    assert grad == pytest.approx(exact_grad, rel=1e-4)
    assert hess == pytest.approx(exact_hess, rel=1e-3)


def test_gmm_hessian_is_gauss_newton_where_moments_match(monkeypatch):
    # Where the member's phi-means match the data's, the residual term
    # vanishes and the Hessian is J^T J, J the Jacobian of the phi-means
    # by central differences.
    P, Q, phi = random_instance(61, 5, 2)
    fam = ExpFamily(Q, FeatureMap(P.space, [[0.3, -0.8, 0.1, 0.9, -0.2], [0.5, 0.2, -0.7, 0.0, 0.4]]))
    theta = np.array([0.4, -0.3])
    data = family_member(fam, theta)
    value, grad, hess = _outer_objective(monkeypatch, fit_gmm, fam, data, phi)(theta)
    h = 1e-6
    jac = np.empty((phi.k, theta.size))
    for j in range(theta.size):
        e = np.zeros_like(theta)
        e[j] = h
        jac[:, j] = (feature_means(family_member(fam, theta + e), phi)
                     - feature_means(family_member(fam, theta - e), phi)) / (2.0 * h)
    assert value == 0.0 and np.max(np.abs(grad)) == 0.0
    assert np.max(np.abs(hess - jac.T @ jac)) <= 1e-8 * np.max(np.abs(hess))


def test_outer_gradient_with_inner_supremum_on_a_face(monkeypatch):
    # The data sit on the edge phi_2 = 0 of the square's hull: at infinite
    # radius the supremum is approached along the face normal, h* holds PIN
    # off the face, and f*(PIN) = -f(0) gives the gradient there.
    space = OutcomeSpace.of_size(4)
    phi = FeatureMap(space, [[0.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0]])
    data = make_dist(space, [0.3, 0.7, 0.0, 0.0])
    fam = ExpFamily(make_dist(space, [1, 2, 3, 4]), FeatureMap(space, [[0.0, 1.0, 2.0, 3.0]]))
    theta = np.array([0.4])
    for name in ("kl", "js_gan", "squared_hellinger"):
        g = builtin(name)
        inner = restricted_div_primal(g, data, family_member(fam, theta), LinearBall(phi, 2, POS_INF))
        assert not inner.attained
        fun = _outer_objective(monkeypatch, fit_linear_fgan, fam, data, g, phi, POS_INF)
        assert _worst_fd_disagreement(fun, theta) <= 1e-6
        assert _worst_hessian_disagreement(fun, theta) <= 1e-6
    # f(0) = +inf for reverse KL: the value is +inf, with no gradient.
    fun = _outer_objective(monkeypatch, fit_linear_fgan, fam, data, builtin("reverse_kl"), phi, POS_INF)
    value, grad, _ = fun(theta)
    assert value == math.inf and not np.any(np.isfinite(grad))


def test_fgan_readme_instance_pinned(three_point):
    # The README mismatch instance has no f-GAN minimiser: the objective keeps
    # falling as theta -> -inf, toward the face member (1/2, 0, 1/2) of the
    # family's closure, which is reported with no parameter.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    data = make_dist(space, [0.2, 0.5, 0.3])
    rep = fit_linear_fgan(fam, data, KL, phi, finite(1.0))
    assert rep.theta is None
    assert np.array_equal(rep.q_star.p, [0.5, 0.0, 0.5])
    face = restricted_div_primal(KL, data, rep.q_star, LinearBall(phi, 2, finite(1.0)))
    assert rep.objective == float(face.value)
    assert rep.objective == pytest.approx(0.0050083668, abs=1e-10)
    assert any("face of the family's closure" in note for note in rep.notes)
    assert not any("max_iters" in note for note in rep.notes)
    assert rep.cross["fgan"] == rep.objective


def test_fgan_readme_instance_jumps_to_the_face(three_point):
    # Near the face the objective is V_face + c e^theta, and each Newton step
    # has length 1: the mass off the face exposed by the step falls by e each
    # time, so after two such steps the face member is tried and accepted.
    # The FACE_GAP split alone lets every start crawl theta = 0, -1, ..., -8
    # (45 outer iterations in all) to the same fit, to the last bit.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    rep = fit_linear_fgan(fam, make_dist(space, [0.2, 0.5, 0.3]), KL, phi, finite(1.0))
    assert rep.trajectory["iterations"] <= 20
    assert np.array_equal(rep.q_star.p, [0.5, 0.0, 0.5])
    assert rep.objective == 0.0050083668463568876
    assert rep.trajectory["per_start"] == [0.0050083668463568876] * 5


def test_fgan_readme_instance_outer_iterations(three_point):
    # Newton steps reach the face in a few iterations per start; plain
    # gradient steps ran all 5 starts to the cap of 150.
    space, base = three_point
    fam = ExpFamily(base, FeatureMap(space, [[0.0, 1.0, 0.0]]))
    phi = FeatureMap(space, [[0.0, 1.0, 2.0]])
    rep = fit_linear_fgan(fam, make_dist(space, [0.2, 0.5, 0.3]), KL, phi, finite(1.0))
    assert rep.trajectory["iterations"] <= 100


def _pool_draw(j):
    """A tilt family with k_psi = 1 < k_phi = 2, drawn as the benchmark's fit pool draws it."""
    rng = np.random.default_rng([20180912, 3, j])
    n = int(rng.integers(4, 8))
    space = OutcomeSpace.of_size(n)
    base = make_dist(space, rng.uniform(0.5, 1.5, n))
    psi = FeatureMap(space, rng.uniform(-1.0, 1.0, size=(1, n)))
    phi = FeatureMap(space, rng.uniform(-1.0, 1.0, size=(2, n)))
    data = make_dist(space, rng.uniform(0.1, 1.0, n))
    radius = finite(float(rng.choice([0.5, 1.0, 2.0])))
    return ExpFamily(base, psi), data, phi, radius


def test_starts_at_one_optimum_are_not_distinct():
    # Every start converges to the same parameter, up to its last Newton
    # step: no "multiple near-optimal parameters" note.
    fam, data, phi, radius = _pool_draw(1)
    for rep in (fit_linear_fgan(fam, data, KL, phi, radius), fit_gmm(fam, data, phi)):
        assert rep.theta is not None
        assert not any("multiple near-optimal" in note for note in rep.notes), rep.estimator


def test_fgan_kl_optimum_is_mle_for_intermediate_distribution():
    # The paper's characterization: at a linear KL-GAN optimum q*, the
    # psi-means of q* equal those of the dual's intermediate distribution
    # P'* = q* e^(h* - 1), so q* is the maximum-likelihood member for P'*.
    for j, radius in ((1, None), (2, None), (5, finite(0.5)), (6, POS_INF)):
        fam, data, phi, drawn = _pool_draw(j)
        rep = fit_linear_fgan(fam, data, KL, phi, radius or drawn)
        assert rep.theta is not None
        residual = feature_means(rep.q_star, fam.psi) - feature_means(rep.pprime, fam.psi)
        assert np.max(np.abs(residual)) <= 1e-8


def _counted_fits(monkeypatch, fam, data, phi, radius):
    """(inner primal solves of the f-GAN fit, objective evaluations of the GMM fit)."""
    solves, evals = [0], [0]
    solve, descend = estimators.restricted_div_primal, estimators._multistart_descend

    def counted_solve(*args, **kwargs):
        solves[0] += 1
        return solve(*args, **kwargs)

    def counted_descend(fam, evaluate, *args, **kwargs):
        def counted(member, *more, **options):
            evals[0] += 1
            return evaluate(member, *more, **options)

        return descend(fam, counted, *args, **kwargs)

    monkeypatch.setattr(estimators, "restricted_div_primal", counted_solve)
    fit_linear_fgan(fam, data, KL, phi, radius)
    monkeypatch.setattr(estimators, "_multistart_descend", counted_descend)
    fit_gmm(fam, data, phi)
    monkeypatch.undo()
    return solves[0], evals[0]


def test_crawled_face_test_costs_nothing_at_interior_optima(monkeypatch):
    # Both fits converge inside the family: the exposed-face test never
    # fires, and the fits make exactly the exact inner solves and the
    # evaluations they make with the FACE_GAP splits alone.
    with pytest.MonkeyPatch.context() as off:
        off.setattr(estimators, "_crawled_face", lambda *args: iter(()))
        without = [_counted_fits(monkeypatch, *_pool_draw(j)) for j in (1, 2)]
    assert without == [(10, 23), (11, 32)]
    assert [_counted_fits(monkeypatch, *_pool_draw(j)) for j in (1, 2)] == without


def _face_heavy_draw(s):
    """Draw s of a survey of tilt families with integer psi, whose fits often end on faces."""
    rng = np.random.default_rng([9090, s])
    n = int(rng.integers(3, 7))
    psi = rng.integers(0, 3, (1 + s % 2, n)).astype(float)
    base, data = rng.uniform(0.5, 1.5, n), rng.uniform(0.1, 1.0, n)
    phi = rng.uniform(-1.0, 1.0, (2, n))
    radius = (finite(0.5), finite(1.0), finite(2.0), POS_INF)[rng.integers(0, 4)]
    space = OutcomeSpace.of_size(n)
    fam = ExpFamily(make_dist(space, base), FeatureMap(space, psi))
    return fam, make_dist(space, data), builtin(SMOOTH[s % 5]), FeatureMap(space, phi), radius


def _evaluated_members(monkeypatch, fit, *args):
    """The members whose objective ``fit`` evaluates, exactly or at trial points."""
    members, descend = [], estimators._multistart_descend

    def recording(fam, evaluate, *rest, **kwargs):
        def recorded(member, *more, **options):
            members.append(member.p)
            return evaluate(member, *more, **options)

        return descend(fam, recorded, *rest, **kwargs)

    monkeypatch.setattr(estimators, "_multistart_descend", recording)
    fit(*args)
    monkeypatch.undo()
    return members


def test_crawled_face_waits_for_steps_of_settled_length(monkeypatch):
    # Draw 44 (squared Hellinger, psi = (2, 1, 1, 1, 2, 0), R = 0.5) has its
    # optimum inside the family, at theta = 2.6. Two starts from theta near 0
    # halve the mass off the face {psi = 2} twice on their way there, but
    # their unit steps shrink (|d| 1.257 -> 1.091 and 1.176 -> 1.073) by more
    # than the mass left off the face (0.117 and 0.091). Testing the face
    # member cost two evaluations at the same iterations.
    fam, data, g, phi, radius = _face_heavy_draw(44)
    assert np.array_equal(fam.psi.values, [[2.0, 1.0, 1.0, 1.0, 2.0, 0.0]]) and radius == finite(0.5)
    cfg = FitConfig(starts=3, max_iters=60)
    members = _evaluated_members(monkeypatch, fit_linear_fgan, fam, data, g, phi, radius, cfg)
    with pytest.MonkeyPatch.context() as off:
        off.setattr(estimators, "_crawled_face", lambda *args: iter(()))
        without = _evaluated_members(monkeypatch, fit_linear_fgan, fam, data, g, phi, radius, cfg)
    assert all(np.all(p > 0.0) for p in members)
    assert len(members) == len(without)


def _readme_instance():
    space = OutcomeSpace.of_size(3)
    fam = ExpFamily(make_dist(space, [1, 1, 1]), FeatureMap(space, [[0.0, 1.0, 0.0]]))
    return fam, make_dist(space, [0.2, 0.5, 0.3]), FeatureMap(space, [[0.0, 1.0, 2.0]]), finite(1.0)


def test_fgan_fits_take_joint_steps(monkeypatch):
    # A trial point takes one inner Newton step from the discriminator moved
    # with theta, where it took a solve from a = 0: the default fits of the
    # README instance and pool draws 1 and 2 made 84, 78 and 88 passes over
    # the inner objective that way.
    passes = [0]
    moments = primal._ReducedObjective.moments

    def counted(self, a):
        passes[0] += 1
        return moments(self, a)

    monkeypatch.setattr(primal._ReducedObjective, "moments", counted)
    out = []
    for fam, data, phi, radius in (_readme_instance(), _pool_draw(1), _pool_draw(2)):
        passes[0] = 0
        fit_linear_fgan(fam, data, KL, phi, radius)
        out.append(passes[0])
    assert out == [32, 40, 50]


def _jittered_pool_draw(j, seed, r):
    """Pool draw j with its masses and features perturbed by a relative 1e-6,
    as the benchmark's ``fit_mismatch`` round r at ``seed`` perturbs them."""
    fam, data, phi, radius = _pool_draw(j)
    rng = np.random.default_rng([seed, r, j])

    def dist(P):
        return make_dist(P.space, P.p * np.exp(1e-6 * rng.normal(size=P.p.shape)))

    def feats(F):
        return FeatureMap(F.space, F.values + 1e-6 * rng.normal(size=F.values.shape))

    base, psi, phi, data = dist(fam.base), feats(fam.psi), feats(phi), dist(data)
    return ExpFamily(base, psi), data, phi, radius


@pytest.mark.parametrize("seed", [3, 31])
def test_fgan_trial_estimates_stay_above_the_floor(monkeypatch, seed):
    # The objective is a divergence, at least 0. On four of these eight
    # perturbed pool draws a trial point estimated -0.00539 where the exact
    # value is 0.00519, when trial Hessians were read inside the sphere on
    # which the inner optimum lies.
    estimates, descend = [], estimators._multistart_descend

    def recording(fam, evaluate, *rest, **kwargs):
        def recorded(*args, **options):
            out = evaluate(*args, **options)
            if not out[3]:
                estimates.append(out[0])
            return out

        return descend(fam, recorded, *rest, **kwargs)

    monkeypatch.setattr(estimators, "_multistart_descend", recording)
    for r in range(4):
        fam, data, phi, radius = _jittered_pool_draw(2, seed, r)
        fit_linear_fgan(fam, data, KL, phi, radius)
    assert estimates and min(estimates) >= 0.0


def test_fgan_trajectory_counts_inner_work(monkeypatch):
    # inner_solves counts the exact inner solves; inner_steps counts their
    # Newton iterations plus the joint steps, which make one pass over the
    # inner objective each outside any solve. Every value the fit reports
    # comes from an exact solve that converged.
    reports, joint, depth = [], [0], [0]
    solve, moments = estimators.restricted_div_primal, primal._ReducedObjective.moments

    def counted_solve(*args, **kwargs):
        depth[0] += 1
        try:
            rep = solve(*args, **kwargs)
        finally:
            depth[0] -= 1
        reports.append(rep)
        return rep

    def counted_moments(self, a):
        joint[0] += depth[0] == 0
        return moments(self, a)

    monkeypatch.setattr(estimators, "restricted_div_primal", counted_solve)
    monkeypatch.setattr(primal._ReducedObjective, "moments", counted_moments)
    for fam, data, phi, radius in (_readme_instance(), _pool_draw(1), _pool_draw(2)):
        reports.clear()
        joint[0] = 0
        rep = fit_linear_fgan(fam, data, KL, phi, radius)
        assert rep.trajectory["inner_solves"] == len(reports)
        assert rep.trajectory["inner_steps"] == sum(r.iterations for r in reports) + joint[0]
        assert joint[0] > 0
        exact = {float(r.value) for r in reports if r.converged and r.residual <= estimators.INNER_TOL}
        assert rep.objective in exact and set(rep.trajectory["per_start"]) <= exact
        assert rep.trajectory["inner_status"] == "converged"


def test_fgan_solves_each_member_once(monkeypatch):
    # Every start of the README fit ends on the face member (1/2, 0, 1/2),
    # which is solved once and reported by each of them.
    members = []
    solve = estimators.restricted_div_primal

    def counted(g, P, Q, *args, **kwargs):
        members.append(Q.p.tobytes())
        return solve(g, P, Q, *args, **kwargs)

    monkeypatch.setattr(estimators, "restricted_div_primal", counted)
    fam, data, phi, radius = _readme_instance()
    rep = fit_linear_fgan(fam, data, KL, phi, radius)
    assert len(members) == len(set(members))
    assert rep.trajectory["per_start"] == [rep.objective] * 5


# f-GAN and GMM objectives of the 12-fit survey below, the tilt-family fits
# with the FACE_GAP splits alone. No fit reports theta None.
SURVEY_OBJECTIVES = [
    (0.0, 2.7755575615628914e-17), (0.0916004018654269, 0.2115661423030133),
    (0.0, 1.878159468825929e-11), (0.09974141688286392, 0.22001054004176845),
    (0.0, 3.273069708340169e-17), (0.07691725859473275, 0.008403831725106977),
    (0.0, 6.3895722339682786e-15), (0.0681755449151901, 0.22937477134998674),
    (0.0, 1.542157893810419e-11), (0.00046641660006612167, 0.022019488152374662),
    (0.0, 8.597071688674005e-14), (0.0020555229028040023, 0.0202424646311708),
]


def test_fit_survey_objectives_pinned():
    # random_instance(800 + s, 3 + s % 4, 2), s < 12: the full simplex for
    # even s, whose fits are closed form, and the tilts of Q by phi's first
    # row for odd s, R cycling 0.5, 1, inf, the five smooth generators in
    # turn, each with its GMM fit. Objectives sitting at 0 agree to rounding.
    cfg = FitConfig(starts=3, max_iters=60)
    for s, (fgan_value, gmm_value) in enumerate(SURVEY_OBJECTIVES):
        P, Q, phi = random_instance(800 + s, 3 + s % 4, 2)
        fam = FullSimplex(P.space) if s % 2 == 0 else ExpFamily(Q, FeatureMap(P.space, phi.values[:1]))
        radius = (finite(0.5), finite(1.0), POS_INF)[s % 3]
        fgan = fit_linear_fgan(fam, P, builtin(SMOOTH[s % 5]), phi, radius, cfg)
        gmm = fit_gmm(fam, P, phi, cfg)
        assert fgan.objective == pytest.approx(fgan_value, rel=1e-10, abs=1e-15), s
        assert gmm.objective == pytest.approx(gmm_value, rel=1e-10, abs=1e-15), s
        assert fgan.theta is not None and gmm.theta is not None, s


def test_fgan_fit_through_a_pinned_intercept():
    # The descent passes members whose inner JS solve pins the intercept at
    # the end of the conjugate's domain (see test_primal's
    # test_intercept_root_within_rounding_of_the_domain_end). The fit raised
    # LinAlgError there, after RuntimeWarnings; it now ends inside the family.
    rng = np.random.default_rng([4242, 35])
    n = int(rng.integers(3, 7))
    psi = rng.integers(0, 3, (1, n)).astype(float)
    base = rng.uniform(0.5, 1.5, n)
    data = rng.uniform(0.1, 1.0, n)
    phi = rng.uniform(-1.0, 1.0, (2, n))
    radius = float(rng.choice([0.5, 1.0, 2.0]))
    space = OutcomeSpace.of_size(n)
    fam = ExpFamily(make_dist(space, base), FeatureMap(space, psi))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_linear_fgan(fam, make_dist(space, data), builtin("js_gan"), FeatureMap(space, phi), radius)
    assert rep.theta is not None and rep.trajectory["inner_status"] == "converged"
    assert max(rep.trajectory["per_start"]) - rep.objective <= 1e-12


# Per-start outcomes of default fits: (per_start, iterations, theta is None,
# inner_solves, inner_steps), the last two for the f-GAN fits only. Face-heavy
# draws 10 and 54 (GMM) end one start of five on a face and the others inside;
# draw 48 (Pearson f-GAN) ends four on a face, and the fit reports that face.
PER_START_PINS = {
    ("readme", "fgan"): ([0.0050083668463568876] * 5, 16, True, 6, 32),
    ("readme", "gmm"): ([0.005000000000000009] * 4 + [0.00500000000000002], 5, False),
    ("pool 1", "fgan"): ([0.00014514142528439591, 0.00014514142528443755, 0.0001451414252843855,
                          0.00014514142528433, 0.00014514142528436816], 20, False, 10, 40),
    ("pool 1", "gmm"): ([5.035686255732406e-06, 5.0356862557341986e-06, 5.035686255732273e-06,
                         5.035686255773758e-06, 5.035686255751812e-06], 23, False),
    ("pool 2", "fgan"): ([0.005189795183036104, 0.005189795183036187, 0.005189795183036819,
                          0.005189795183036187, 0.005189795183036257], 25, False, 11, 50),
    ("pool 2", "gmm"): ([0.0014178586537364653, 0.0014178586537362734, 0.0014178586537362714,
                         0.0014178586537362745, 0.0014178586537362703], 29, False),
    ("face-heavy 10", "gmm"): ([0.003637137685933055, 0.0036371376859330594, 0.023887810037463077,
                                0.003637137685933059, 0.0036371376859330594], 26, False),
    ("face-heavy 48", "fgan"): ([0.011941064924950201] * 4 + [0.02127040532615529], 24, True, 7, 32),
    ("face-heavy 54", "gmm"): ([1.7320089766383902e-06, 1.7320089766300553e-06, 0.07397452328307902,
                                1.7320089766302497e-06, 1.7320089766975474e-06], 20, False),
}


def _pinned_fits():
    """(name, estimator) -> default fit, for every key of PER_START_PINS."""
    for name, (fam, data, phi, radius) in (("readme", _readme_instance()), ("pool 1", _pool_draw(1)),
                                           ("pool 2", _pool_draw(2))):
        yield (name, "fgan"), fit_linear_fgan(fam, data, KL, phi, radius)
        yield (name, "gmm"), fit_gmm(fam, data, phi)
    for s, estimator in ((10, "gmm"), (48, "fgan"), (54, "gmm")):
        fam, data, g, phi, radius = _face_heavy_draw(s)
        rep = fit_linear_fgan(fam, data, g, phi, radius) if estimator == "fgan" else fit_gmm(fam, data, phi)
        yield (f"face-heavy {s}", estimator), rep


def _outcome(rep):
    t = rep.trajectory
    inner = (t["inner_solves"], t["inner_steps"]) if rep.estimator == "fgan" else ()
    return (t["per_start"], t["iterations"], rep.theta is None, *inner)


def test_per_start_outcomes_pinned():
    # Each start's value, the fit's outer iterations and inner work, to the
    # bit: the starts advance together, but each takes the path it would alone.
    fits = dict(_pinned_fits())
    assert set(fits) == set(PER_START_PINS)
    for key, rep in fits.items():
        assert _outcome(rep) == PER_START_PINS[key], key


def test_starts_that_stop_at_different_passes():
    # Pool draw 1 at max_iters=4: some starts stop on their own, others run
    # to the cap, so no cap note.
    fam, data, phi, radius = _pool_draw(1)
    rep = fit_linear_fgan(fam, data, KL, phi, radius, FitConfig(max_iters=4))
    assert _outcome(rep) == ([0.00014514142528439591, 0.00014514142528443755, 0.00014514142594578353,
                              0.00014514142528433, 0.00014514142528436816], 18, False, 10, 39)
    assert not any("max_iters" in note for note in rep.notes)
    # Data equal to the base of pool draw 2's family: start 0 meets the GMM
    # value floor at its first point while the others descend.
    fam, _, phi, _ = _pool_draw(2)
    rep = fit_gmm(fam, fam.base, phi)
    assert _outcome(rep) == ([2.1666711874356403e-34, 7.999402683474193e-21, 2.527111527076122e-21,
                              4.066196210988152e-26, 4.778698926739113e-22], 22, False)


def test_indicator_family_fit_with_several_parameters_pinned():
    # random_instance(802, 5, 4) on the tilts of the uniform distribution by
    # the first four indicators (4 parameters): stacked products may move the
    # last bits of each step, not the fit. Four features on five atoms leave
    # one member with the data's phi-means, the data, so the optimum is
    # isolated; the objective sits at 0, and the per-start values agree to
    # rounding only.
    P, _, phi = random_instance(802, 5, 4)
    rep = fit_linear_fgan(_indicators(P.space), P, KL, phi, finite(1.0), FitConfig(starts=3, max_iters=60))
    assert rep.trajectory["iterations"] == 29 and not rep.notes
    assert rep.trajectory["per_start"] == pytest.approx(
        [1.4364048577881714e-16, 6.649705006837012e-17, 8.118004741510975e-18], rel=1e-10, abs=1e-15)
    assert rep.theta == pytest.approx([-2.1337443058637424, 0.09195160408021347, -1.6772283055116288,
                                       -0.14714170506184573], rel=1e-10)
    assert rep.q_star.p == pytest.approx([0.03626388409333551, 0.3358008337061745, 0.05724488639277005,
                                          0.2643899028273921, 0.3063004929803278], rel=1e-10)
    assert rep.q_star.p == pytest.approx(P.p, abs=1e-9)


@pytest.mark.parametrize("field", ["tol"])
@pytest.mark.parametrize("value", [math.nan, -1.0, 0.0, math.inf])
def test_fit_config_rejects_non_positive_tolerances(field, value):
    # A NaN or non-positive tol never passes the gradient test, so starts ran
    # until they stalled. An infinite tol passed every start's gradient test
    # at once: a KL f-GAN fit stopped after 2 iterations at objective 0.15,
    # where tol = 1e-8 reaches 2e-16.
    with pytest.raises(ValidationError, match=f"^{field} must be positive"):
        FitConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_fit_config_rejects_bad_seeds(seed):
    # -1 reached the start points' SeedSequence, which raised numpy's
    # ValueError; 1.5 was truncated to 1 there.
    with pytest.raises(ValidationError, match="^seed must be a non-negative integer"):
        FitConfig(seed=seed)


def test_total_variation_fit_is_exact_everywhere(monkeypatch):
    # Total variation's solves leave no discriminator for a joint step to
    # move, so every evaluation of its fit, trial points included, is an
    # exact inner solve: no inner Newton step is taken outside them, and
    # inner_steps is the sum of the solves' iterations.
    iterations, steps = [], [0]
    solve, step = estimators.restricted_div_primal, estimators.newton_step

    def counted_solve(*args, **kwargs):
        rep = solve(*args, **kwargs)
        iterations.append(rep.iterations)
        return rep

    def counted_step(*args, **kwargs):
        steps[0] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(estimators, "restricted_div_primal", counted_solve)
    monkeypatch.setattr(estimators, "newton_step", counted_step)
    P, _, phi = random_instance(900, 3, 1)
    rep = fit_linear_fgan(_indicators(P.space), P, builtin("total_variation"), phi, finite(1.0),
                          FitConfig(starts=2, max_iters=3))
    assert steps[0] == 0
    assert rep.trajectory["inner_solves"] == len(iterations) == 33
    assert rep.trajectory["inner_steps"] == sum(iterations) == 716
    assert rep.trajectory["iterations"] == 6
    assert rep.objective == 3.105717841783706e-05


def test_total_variation_fit_on_the_full_simplex_is_exact():
    # The same instance on the full simplex: the moment-matched member, scored
    # by one inner solve, reaches the optimum 0. The softmax descent stopped
    # at 7.77e-6 after 50 inner solves.
    P, _, phi = random_instance(900, 3, 1)
    rep = fit_linear_fgan(FullSimplex(P.space), P, builtin("total_variation"), phi, finite(1.0),
                          FitConfig(starts=2, max_iters=3))
    assert rep.objective <= 1e-15
    assert rep.trajectory["inner_solves"] == 1


def _reference_direction(grad, hess, basis):
    """One start's Levenberg-Marquardt step, computed alone."""
    g = basis.T @ grad
    lam, vecs = np.linalg.eigh(basis.T @ hess @ basis)
    floor = 64.0 * np.finfo(float).eps * lam.size * max(float(np.abs(lam).max()), 1e-300)
    mu = 0.0 if lam[0] > floor else np.linalg.norm(g) - lam[0]
    denom = lam + mu
    coef = np.divide(vecs.T @ g, denom, out=np.zeros_like(lam), where=denom > 0.0)
    return -(basis @ (vecs @ coef))


def test_stacked_directions_match_each_start_alone():
    # Definite, indefinite and singular Hessians in one stack, in the span of
    # bases of rank 1 to 3: each row is the step its start takes alone, to
    # the bit with one parameter and to rounding with more.
    rng = np.random.default_rng(7)
    for dim, rank in ((1, 1), (3, 2), (4, 3), (5, 4)):
        basis = np.linalg.qr(rng.normal(size=(dim, rank)))[0]
        grad = rng.normal(size=(6, dim))
        a = rng.normal(size=(6, dim, dim))
        hess = a @ a.transpose(0, 2, 1) - np.array([0.0, 0.5, 2.0, 0.0, 0.0, 0.0])[:, None, None] * np.eye(dim)
        hess[3] = 0.0
        hess[4] = np.outer(grad[4], grad[4])
        stacked = estimators._newton_directions(grad, hess, basis)
        alone = np.array([_reference_direction(g, h, basis) for g, h in zip(grad, hess)])
        if dim == 1:
            assert np.array_equal(stacked, alone)
        else:
            assert np.allclose(stacked, alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())
