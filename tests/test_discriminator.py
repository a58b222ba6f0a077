import math

import numpy as np
import pytest

from fdual.discriminator import (
    FullSpace,
    LinearBall,
    QuadraticCoefficientPenalty,
    dual_exponent,
    holder_extremal,
    lambda_star_gap,
    membership,
    pnorm,
    realize,
)
from fdual.errors import BallViolation, DimensionMismatch, SpaceMismatch, UnsupportedNorm
from fdual.extreal import POS_INF, finite
from fdual.space import FeatureMap, FunctionOnSpace, OutcomeSpace, make_dist, random_instance


@pytest.fixture
def setup2():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    P = make_dist(space, [1, 1])
    Pp = make_dist(space, [3, 1])
    return space, phi, P, Pp


def test_gap_zero_when_equal(setup2):
    space, phi, P, _ = setup2
    for reg in (
        FullSpace(space),
        LinearBall(phi, 2, finite(2.0)),
        LinearBall(phi, 2, POS_INF),
        QuadraticCoefficientPenalty(phi, 1.0),
    ):
        assert float(lambda_star_gap(reg, P, P)) == 0.0


def test_gap_l2_ball_example(setup2):
    space, phi, P, Pp = setup2
    # Means are 0.5 and 0.25; radius 2 scales the absolute difference.
    gap = lambda_star_gap(LinearBall(phi, 2, finite(2.0)), P, Pp)
    assert float(gap) == pytest.approx(2.0 * abs(0.5 - 0.25), abs=1e-12)


def test_gap_full_space_infinite(setup2):
    space, _, P, Pp = setup2
    assert lambda_star_gap(FullSpace(space), P, Pp).is_pos_inf


def test_gap_unbounded_cone_infinite(setup2):
    _, phi, P, Pp = setup2
    assert lambda_star_gap(LinearBall(phi, 2, POS_INF), P, Pp).is_pos_inf


def test_gap_quadratic(setup2):
    _, phi, P, Pp = setup2
    w = 0.7
    gap = float(lambda_star_gap(QuadraticCoefficientPenalty(phi, w), P, Pp))
    assert gap == pytest.approx(0.25**2 / (4 * w), abs=1e-12)


def test_gap_space_mismatch(setup2):
    _, phi, P, _ = setup2
    other = make_dist(OutcomeSpace.of_size(3), [1, 1, 1])
    with pytest.raises(SpaceMismatch):
        lambda_star_gap(LinearBall(phi, 2, finite(1.0)), P, other)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_holder_duality(p):
    rng = np.random.default_rng(11)
    P, Pp, phi = None, None, None
    for trial in range(10):
        Pq, Pr, phi = random_instance(300 + trial, 6, 3)
        d = phi.values @ (Pq.p - Pr.p)
        radius = 1.7
        gap = float(lambda_star_gap(LinearBall(phi, p, finite(radius)), Pq, Pr))
        a_star = holder_extremal(d, p, radius)
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
    base = float(lambda_star_gap(LinearBall(phi, 2, finite(1.0)), P, Pp))
    for radius in (0.1, 0.5, 2.0, 10.0):
        gap = float(lambda_star_gap(LinearBall(phi, 2, finite(radius)), P, Pp))
        assert gap == pytest.approx(radius * base, rel=1e-15)


def test_shift_invariance_membership(setup2):
    space, phi, _, _ = setup2
    spec = LinearBall(phi, 2, finite(2.0))
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.uniform(-2, 2, 1)
        if pnorm(a, 2.0) > 2.0:
            continue
        b = float(rng.normal())
        h = realize(spec, a, 0.0)
        shifted = FunctionOnSpace(space, h.values + b)
        assert membership(spec, h) == membership(spec, shifted) is True


def test_realize_constant(setup2):
    _, phi, _, _ = setup2
    spec = LinearBall(phi, 2, finite(1.0))
    h = realize(spec, [0.0], 3.0)
    assert np.allclose(h.values, 3.0)


def test_two_point_span(setup2):
    space, phi, _, _ = setup2
    spec = LinearBall(phi, 2, POS_INF)
    rng = np.random.default_rng(4)
    for _ in range(5):
        h = FunctionOnSpace(space, rng.normal(size=2))
        assert membership(spec, h)


def test_ball_violation(setup2):
    _, phi, _, _ = setup2
    spec = LinearBall(phi, 2, finite(1.0))
    with pytest.raises(BallViolation):
        realize(spec, [2.0], 0.0)


def test_dimension_mismatch(setup2):
    _, phi, _, _ = setup2
    spec = LinearBall(phi, 2, finite(1.0))
    with pytest.raises(DimensionMismatch):
        realize(spec, [0.5, 0.5], 0.0)


def test_membership_respects_ball():
    space = OutcomeSpace.of_size(3)
    phi = FeatureMap(space, [[1.0, 0.0, -1.0]])
    tight = LinearBall(phi, 2, finite(0.5))
    h = FunctionOnSpace(space, 2.0 * phi.values[0] + 1.0)
    assert not membership(tight, h)
    assert membership(LinearBall(phi, 2, finite(3.0)), h)


def test_bad_parameters():
    space = OutcomeSpace.of_size(2)
    phi = FeatureMap(space, [[0.0, 1.0]])
    with pytest.raises(BallViolation):
        LinearBall(phi, 2, finite(-1.0))
    with pytest.raises(UnsupportedNorm):
        LinearBall(phi, 0.5, finite(1.0))
    with pytest.raises(DimensionMismatch):
        QuadraticCoefficientPenalty(phi, 0.0)


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


def test_dual_exponent():
    assert dual_exponent(1.0) == math.inf
    assert dual_exponent(math.inf) == 1.0
    assert dual_exponent(2.0) == 2.0
    assert dual_exponent(1.5) == pytest.approx(3.0)
