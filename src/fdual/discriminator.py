"""Discriminator classes, regularizers, and their conjugate gaps.

Two discriminator classes are supported: the space of all functions,
and affine functions ``a . phi(x) + b`` whose coefficient vector is
confined to a p-norm ball of radius R (R = inf meaning unconstrained
coefficients). The intercept is always part of the class; closure
under adding constants is what makes the intercept-reduction and the
whole duality machinery sound, so intercept-free classes exist only as
an explicit test hook and are rejected by the gap computations.

``lambda_star_gap`` evaluates the conjugate of the indicator (or soft)
regularizer at the signed measure P - P'. For a p-ball this is
``R * || E_P[phi] - E_P'[phi] ||_q`` with 1/p + 1/q = 1, the
norm-duality maximum of ``a . (E_P[phi] - E_P'[phi])`` over the ball.
``gap_conjugate`` is that formula at a given moment gap, which the
dual objective of :mod:`fdual.dual` also evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BallViolation, DimensionMismatch, SpaceMismatch, UnsupportedNorm
from .extreal import ExtReal, POS_INF, finite
from .space import Dist, FeatureMap, FunctionOnSpace, OutcomeSpace, _require_same_space, feature_means

__all__ = [
    "FullSpace",
    "LinearBall",
    "DiscriminatorSpec",
    "IndicatorOf",
    "QuadraticCoefficientPenalty",
    "RegularizerSpec",
    "DIST_EQ_TOL",
    "MEAN_EQ_TOL",
    "dual_exponent",
    "pnorm",
    "holder_extremal",
    "gap_conjugate",
    "lambda_star_gap",
    "membership",
    "realize",
]

DIST_EQ_TOL = 1e-12
MEAN_EQ_TOL = 1e-10


@dataclass(frozen=True)
class FullSpace:
    """All real-valued functions on the space."""

    space: OutcomeSpace


@dataclass(frozen=True)
class LinearBall:
    """Affine discriminators with p-ball-constrained coefficients.

    ``radius`` may be infinite (unconstrained coefficients). The
    ``intercept`` flag exists only so tests can construct the broken
    intercept-free variant; every supported computation requires it to
    be True.
    """

    phi: FeatureMap
    p: float
    radius: ExtReal
    intercept: bool = True

    def __post_init__(self):
        r = self.radius
        if not isinstance(r, ExtReal):
            r = POS_INF if math.isinf(float(r)) else finite(float(r))
            object.__setattr__(self, "radius", r)
        if self.radius.is_neg_inf or float(self.radius) <= 0.0:
            raise BallViolation("ball radius must be positive")
        p = float(self.p)
        if not (p >= 1.0 or math.isinf(p)):
            raise UnsupportedNorm("norm exponent must lie in [1, inf]")
        object.__setattr__(self, "p", p)

    @property
    def space(self) -> OutcomeSpace:
        return self.phi.space

    @property
    def k(self) -> int:
        return self.phi.k


DiscriminatorSpec = FullSpace | LinearBall


@dataclass(frozen=True)
class IndicatorOf:
    """Hard regularizer: zero on the class, infinite outside."""

    spec: DiscriminatorSpec


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
        if not (float(self.weight) > 0.0 and math.isfinite(float(self.weight))):
            raise DimensionMismatch("penalty weight must be positive and finite")
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def space(self) -> OutcomeSpace:
        return self.phi.space


RegularizerSpec = IndicatorOf | QuadraticCoefficientPenalty


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


def holder_extremal(d: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Maximizer of ``a . d`` over the p-ball of the given radius."""
    d = np.asarray(d, dtype=float)
    if np.all(d == 0.0):
        return np.zeros_like(d)
    if math.isinf(p):
        return radius * np.sign(d)
    if p == 1.0:
        a = np.zeros_like(d)
        i = int(np.argmax(np.abs(d)))
        a[i] = radius * math.copysign(1.0, d[i])
        return a
    if p == 2.0:
        return radius * d / float(np.linalg.norm(d))
    q = dual_exponent(p)
    w = np.sign(d) * np.abs(d) ** (q - 1.0)
    return radius * w / pnorm(w, p)


def _regularizer_space(reg: RegularizerSpec) -> OutcomeSpace:
    if isinstance(reg, IndicatorOf):
        return reg.spec.space
    return reg.space


def gap_conjugate(reg: RegularizerSpec, d: np.ndarray) -> float:
    """The regularizer's conjugate at a moment gap ``d`` = E_P[phi] - E_P'[phi]:
    ``||d||^2 / (4 weight)`` for a quadratic penalty, ``R ||d||_q`` for a
    finite p-ball of radius R, with 1/p + 1/q = 1."""
    if isinstance(reg, QuadraticCoefficientPenalty):
        return float(d @ d) / (4.0 * reg.weight)
    return reg.spec.radius.value * pnorm(d, dual_exponent(reg.spec.p))


def lambda_star_gap(reg: RegularizerSpec, P: Dist, Pp: Dist) -> ExtReal:
    """Conjugate of the regularizer evaluated at P - P'.

    Equals ``sup_h E_P[h] - E_P'[h] - lambda(h)``; for indicator
    regularizers that is the supremum of the mean gap over the class.
    """
    space = _regularizer_space(reg)
    if P.space != space or Pp.space != space:
        raise SpaceMismatch("distributions and regularizer live on different spaces")
    if isinstance(reg, QuadraticCoefficientPenalty):
        gap = feature_means(P, reg.phi) - feature_means(Pp, reg.phi)
        return finite(gap_conjugate(reg, gap))
    spec = reg.spec
    if isinstance(spec, FullSpace):
        if float(np.max(np.abs(P.p - Pp.p))) <= DIST_EQ_TOL:
            return finite(0.0)
        return POS_INF
    gap = feature_means(P, spec.phi) - feature_means(Pp, spec.phi)
    if spec.radius.is_finite:
        return finite(gap_conjugate(reg, gap))
    if float(np.max(np.abs(gap))) <= MEAN_EQ_TOL:
        return finite(0.0)
    return POS_INF


def membership(spec: DiscriminatorSpec, h: FunctionOnSpace, tol: float = 1e-9) -> bool:
    """Whether ``h`` is representable in the class within ``tol``.

    For a linear class representability is tested by least squares over
    the affine span (the minimum-norm coefficient solution), followed
    by the ball check on the recovered coefficients.
    """
    _require_same_space(spec if isinstance(spec, FullSpace) else spec.phi, h)
    if isinstance(spec, FullSpace):
        return True
    n = spec.space.n
    cols = [spec.phi.values.T]
    if spec.intercept:
        cols.append(np.ones((n, 1)))
    design = np.hstack(cols)
    coef, *_ = np.linalg.lstsq(design, h.values, rcond=None)
    residual = float(np.linalg.norm(design @ coef - h.values))
    if residual > tol:
        return False
    a = coef[: spec.k]
    if spec.radius.is_finite and pnorm(a, spec.p) > spec.radius.value + tol:
        return False
    return True


def realize(spec: LinearBall, a, b: float) -> FunctionOnSpace:
    """Materialize the affine discriminator ``a . phi + b``."""
    if not isinstance(spec, LinearBall):
        raise DimensionMismatch("realize requires a linear discriminator class")
    a = np.asarray(a, dtype=float)
    if a.shape != (spec.k,):
        raise DimensionMismatch(f"coefficients have shape {a.shape}, expected ({spec.k},)")
    if spec.radius.is_finite and pnorm(a, spec.p) > spec.radius.value * (1.0 + 1e-12) + 1e-15:
        raise BallViolation(
            f"||a||_{spec.p} = {pnorm(a, spec.p)!r} exceeds radius {spec.radius.value!r}"
        )
    return FunctionOnSpace(spec.space, a @ spec.phi.values + float(b))
