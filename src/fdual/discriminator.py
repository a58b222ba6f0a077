"""Discriminator classes, regularizers, and the conjugate gap the dual scores.

Two discriminator classes are supported: the space of all functions,
and affine functions ``a . phi(x) + b`` whose coefficient vector is
confined to a p-norm ball of radius R (R = inf meaning unconstrained
coefficients). The intercept is always part of the class; closure
under adding constants is what makes the intercept-reduction and the
whole duality machinery sound.

A class acts as its own regularizer: the indicator that is zero on the
class and infinite outside it. The one soft regularizer is
:class:`QuadraticCoefficientPenalty`. On a finite ball and under the
penalty, the conjugate at the signed measure P - P' depends on P' only
through the moment gap d = E_P[phi] - E_P'[phi], and ``gap_conjugate``
evaluates it there: ``R * ||d||_q`` with 1/p + 1/q = 1 for a p-ball,
the norm-duality maximum of ``a . d`` over the ball. The dual of
:mod:`fdual.dual` scores the primal's tilt with it. The other two
conjugates are 0 or +inf, pinning P' = P on the full space and d = 0
at infinite radius; the dual solves those in closed form and by
moment projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BallViolation, UnsupportedNorm, ValidationError
from .extreal import ExtReal
from .space import FeatureMap, OutcomeSpace

__all__ = [
    "FullSpace",
    "LinearBall",
    "DiscriminatorSpec",
    "QuadraticCoefficientPenalty",
    "dual_exponent",
    "pnorm",
    "gap_conjugate",
]


@dataclass(frozen=True)
class FullSpace:
    """All real-valued functions on the space."""

    space: OutcomeSpace


@dataclass(frozen=True)
class LinearBall:
    """Affine discriminators with p-ball-constrained coefficients.

    ``radius`` is a positive number, kept as an ``ExtReal`` (a float that
    reads ``is_finite``); it may be +inf (unconstrained coefficients). A
    radius that is not positive, NaN and -inf included, raises
    :class:`BallViolation`.
    """

    phi: FeatureMap
    p: float
    radius: float

    def __post_init__(self):
        r = ExtReal(self.radius)
        if not r > 0.0:
            raise BallViolation("ball radius must be positive")
        object.__setattr__(self, "radius", r)
        p = float(self.p)
        if not (p >= 1.0 or math.isinf(p)):
            raise UnsupportedNorm("norm exponent must lie in [1, inf]")
        object.__setattr__(self, "p", p)


DiscriminatorSpec = FullSpace | LinearBall


@dataclass(frozen=True)
class QuadraticCoefficientPenalty:
    """Soft regularizer ``weight * ||a||_2^2`` on the feature coefficients.

    The intercept is never penalized, which keeps the regularizer shift
    invariant. Its conjugate gap is ``||E_P[phi] - E_P'[phi]||_2^2 / (4w)``
    (an unconstrained quadratic maximum in a). When the features are
    affinely dependent the coefficient representation of a function is
    not unique; the penalty is read against the supplied coefficients,
    and the conjugate only ever sees the feature means, so the gap is
    well defined regardless.
    """

    phi: FeatureMap
    weight: float

    def __post_init__(self):
        w = float(self.weight)
        if not 0.0 < w < math.inf:
            raise ValidationError("penalty weight must be positive and finite")
        object.__setattr__(self, "weight", w)


def dual_exponent(p: float) -> float:
    """q with 1/p + 1/q = 1."""
    if math.isinf(p):
        return 1.0
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


def pnorm(a: np.ndarray, p: float) -> float:
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(np.max(np.abs(a)))
    return float(np.linalg.norm(a, ord=p))


def gap_conjugate(spec: DiscriminatorSpec | QuadraticCoefficientPenalty, d: np.ndarray) -> float:
    """The regularizer's conjugate at a moment gap ``d`` = E_P[phi] - E_P'[phi]:
    ``||d||^2 / (4 weight)`` for a quadratic penalty, ``R ||d||_q`` for a
    finite p-ball of radius R, with 1/p + 1/q = 1."""
    if isinstance(spec, QuadraticCoefficientPenalty):
        return float(d @ d) / (4.0 * spec.weight)
    return spec.radius * pnorm(d, dual_exponent(spec.p))
