import math

import numpy as np
import pytest

from fdual.discriminator import (
    LinearBall,
    QuadraticCoefficientPenalty,
    dual_exponent,
    gap_conjugate,
    pnorm,
)
from fdual.errors import BallViolation, UnsupportedNorm, ValidationError
from fdual.extreal import POS_INF, finite
from fdual.space import FeatureMap, OutcomeSpace, feature_means, make_dist, random_instance


@pytest.fixture
def setup2():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    P = make_dist(space, [1, 1])
    Pp = make_dist(space, [3, 1])
    return space, phi, P, Pp


def _moment_gap(phi, P, Pp):
    return feature_means(P, phi) - feature_means(Pp, phi)


def _holder_extremal(d, p, radius):
    """Maximizer of ``a . d`` over the p-ball of the given radius."""
    if np.all(d == 0.0):
        return np.zeros_like(d)
    if math.isinf(p):
        return radius * np.sign(d)
    if p == 1.0:
        a = np.zeros_like(d)
        i = int(np.argmax(np.abs(d)))
        a[i] = radius * math.copysign(1.0, d[i])
        return a
    w = np.sign(d) * np.abs(d) ** (dual_exponent(p) - 1.0)
    return radius * w / pnorm(w, p)


def test_gap_zero_when_equal(setup2):
    _, phi, P, _ = setup2
    for reg in (LinearBall(phi, 2, finite(2.0)), QuadraticCoefficientPenalty(phi, 1.0)):
        assert gap_conjugate(reg, _moment_gap(phi, P, P)) == 0.0


def test_gap_l2_ball_example(setup2):
    _, phi, P, Pp = setup2
    # Means are 0.5 and 0.25; radius 2 scales the absolute difference.
    gap = gap_conjugate(LinearBall(phi, 2, finite(2.0)), _moment_gap(phi, P, Pp))
    assert gap == pytest.approx(2.0 * abs(0.5 - 0.25), abs=1e-12)


def test_gap_quadratic(setup2):
    _, phi, P, Pp = setup2
    w = 0.7
    gap = gap_conjugate(QuadraticCoefficientPenalty(phi, w), _moment_gap(phi, P, Pp))
    assert gap == pytest.approx(0.25**2 / (4 * w), abs=1e-12)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_holder_duality(p):
    rng = np.random.default_rng(11)
    for trial in range(10):
        Pq, Pr, phi = random_instance(300 + trial, 6, 3)
        d = phi.values @ (Pq.p - Pr.p)
        radius = 1.7
        gap = gap_conjugate(LinearBall(phi, p, finite(radius)), _moment_gap(phi, Pq, Pr))
        a_star = _holder_extremal(d, p, radius)
        assert pnorm(a_star, p) <= radius * (1 + 1e-12)
        assert abs(float(a_star @ d) - gap) <= 1e-8
        # Random feasible coefficients never beat the extremal one.
        for _ in range(20):
            a = rng.normal(size=3)
            norm = pnorm(a, p)
            if norm > radius:
                a = a * (radius / norm)
            assert float(a @ d) <= gap + 1e-10


def test_gap_linear_in_radius(setup2):
    _, phi, P, Pp = setup2
    d = _moment_gap(phi, P, Pp)
    base = gap_conjugate(LinearBall(phi, 2, finite(1.0)), d)
    for radius in (0.1, 0.5, 2.0, 10.0):
        gap = gap_conjugate(LinearBall(phi, 2, finite(radius)), d)
        assert gap == pytest.approx(radius * base, rel=1e-15)


def test_bad_parameters():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    with pytest.raises(BallViolation):
        LinearBall(phi, 2, finite(-1.0))
    with pytest.raises(UnsupportedNorm):
        LinearBall(phi, 0.5, finite(1.0))
    with pytest.raises(ValidationError):
        QuadraticCoefficientPenalty(phi, 0.0)


@pytest.mark.parametrize("weight", [-1.0, math.inf, math.nan])
def test_penalty_weight_that_is_not_positive_and_finite_is_a_validation_error(weight):
    # It was a DimensionMismatch, though no dimension is at fault.
    phi = FeatureMap(OutcomeSpace.of_size(2), [[0.0, 1.0]])
    with pytest.raises(ValidationError, match="penalty weight must be positive and finite"):
        QuadraticCoefficientPenalty(phi, weight)


@pytest.mark.parametrize("radius", [math.nan, -math.inf])
def test_ball_radius_that_is_not_positive_raises(radius):
    # NaN raised extreal.finite's plain ValueError, and -inf was wrapped as
    # +inf, an unconstrained ball.
    phi = FeatureMap(OutcomeSpace.of_size(2), [[0.0, 1.0]])
    with pytest.raises(BallViolation, match="radius must be positive"):
        LinearBall(phi, 2, radius)


def test_ball_radius_reads_plain_numbers():
    phi = FeatureMap(OutcomeSpace.of_size(2), [[0.0, 1.0]])
    assert LinearBall(phi, 2, 0.5).radius == finite(0.5)
    assert LinearBall(phi, 2, math.inf).radius == POS_INF
    assert LinearBall(phi, 2, 0.5).radius.is_finite and not LinearBall(phi, 2, math.inf).radius.is_finite


def test_dual_exponent():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(1.5) == pytest.approx(3.0)
