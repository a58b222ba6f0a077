"""Finite outcome spaces, distributions, functions and feature maps.

Everything is an immutable value object over a shared
:class:`OutcomeSpace`; operations check that their operands live on the
same space and raise :class:`~fdual.errors.SpaceMismatch` otherwise.
:meth:`OutcomeSpace.of_size` interns its spaces: equal arguments give
the same frozen instance, so the check is an identity test.
Probability vectors are 64-bit floats whose sum is repaired only within
1e-9 of one; anything further off is rejected rather than silently
renormalized, because a badly scaled vector almost always means a bug
in the calling harness.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AllZero,
    BadMinMass,
    DimensionMismatch,
    NegativeWeight,
    NotNormalized,
    SpaceMismatch,
)

__all__ = [
    "OutcomeSpace",
    "Dist",
    "FunctionOnSpace",
    "FeatureMap",
    "make_dist",
    "expectation",
    "feature_means",
    "absolutely_continuous",
    "random_dist",
    "random_instance",
]

SUM_TOL = 1e-12
RENORM_TOL = 1e-9
# Distinct (n, prefix) spaces that OutcomeSpace.of_size keeps shared.
INTERNED_SPACES = 64


def _frozen_array(values, shape_hint: str) -> np.ndarray:
    # A copy: a read-only view of a caller's writable array is not immutable.
    arr = np.array(values, dtype=float)
    # NaN and +-inf carry through min and max, which make no temporary of arr's size.
    if arr.size and not (math.isfinite(arr.min()) and math.isfinite(arr.max())):
        raise DimensionMismatch(f"{shape_hint} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class OutcomeSpace:
    """A finite set of outcomes identified by distinct string labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        # From a list: tuple(generator) resizes and fills CPython's tuple free lists.
        labels = tuple([str(x) for x in self.labels])
        object.__setattr__(self, "labels", labels)
        if len(labels) < 1:
            raise DimensionMismatch("outcome space needs at least one outcome")
        if len(set(labels)) != len(labels):
            raise DimensionMismatch("outcome labels must be distinct")

    def __eq__(self, other):
        # A shared space (see of_size) compares without a pass over its labels.
        if self is other:
            return True
        if not isinstance(other, OutcomeSpace):
            return NotImplemented
        return self.labels == other.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_size(n: int, prefix: str = "x") -> "OutcomeSpace":
        """The space with labels prefix1, ..., prefixn.

        The returned space is shared: equal ``(n, prefix)`` give the same
        instance, from a cache of the last ``INTERNED_SPACES`` of them.
        Spaces are frozen, so sharing one is safe.
        """
        return _interned_space(operator.index(n), str(prefix))


@lru_cache(maxsize=INTERNED_SPACES)
def _interned_space(n: int, prefix: str) -> OutcomeSpace:
    # An exception is not cached: a bad n raises on every call.
    if n < 1:
        raise DimensionMismatch("outcome space needs at least one outcome")
    return OutcomeSpace(tuple([f"{prefix}{i + 1}" for i in range(n)]))


def _require_same_space(a, b) -> None:
    sa, sb = a.space, b.space
    if sa == sb:
        return
    la, lb = sa.labels, sb.labels
    i = next((j for j, (x, y) in enumerate(zip(la, lb)) if x != y), min(len(la), len(lb)))
    first_a = repr(la[i]) if i < len(la) else "none"
    first_b = repr(lb[i]) if i < len(lb) else "none"
    raise SpaceMismatch(
        f"spaces differ: {len(la)} vs {len(lb)} outcomes, first at position {i}: {first_a} vs {first_b}"
    )


@dataclass(frozen=True)
class Dist:
    """A probability vector over a finite outcome space.

    Entries must be nonnegative and sum to one. A deviation up to 1e-9
    is repaired by dividing by the sum; beyond that construction fails.
    Support is the set of strictly positive coordinates, with no epsilon
    threshold, so absolute-continuity checks are exact set inclusions.
    """

    space: OutcomeSpace
    p: np.ndarray

    def __post_init__(self):
        arr = np.array(self.p, dtype=float)
        if arr.shape != (self.space.n,):
            raise DimensionMismatch(
                f"mass vector has shape {arr.shape}, expected ({self.space.n},)"
            )
        if not np.all(np.isfinite(arr)):
            raise NotNormalized("mass vector contains non-finite entries")
        if np.any(arr < 0):
            raise NegativeWeight("probability masses must be nonnegative")
        s = float(arr.sum())
        if abs(s - 1.0) > RENORM_TOL:
            raise NotNormalized(
                f"masses sum to {s!r}; repair is refused beyond {RENORM_TOL}"
            )
        if abs(s - 1.0) > SUM_TOL:
            arr = arr / s
        arr.setflags(write=False)
        object.__setattr__(self, "p", arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dist)
            and self.space == other.space
            and np.array_equal(self.p, other.p)
        )

    def __hash__(self):
        return hash((self.space, self.p.tobytes()))


@dataclass(frozen=True)
class FunctionOnSpace:
    """A real-valued function on a finite space (vector of values)."""

    space: OutcomeSpace
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "function values")
        if arr.shape != (self.space.n,):
            raise DimensionMismatch(
                f"function has shape {arr.shape}, expected ({self.space.n},)"
            )
        object.__setattr__(self, "values", arr)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FunctionOnSpace)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.space, self.values.tobytes()))


@dataclass(frozen=True)
class FeatureMap:
    """A k x n matrix of feature values, row j holding feature j."""

    space: OutcomeSpace
    values: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.values, "feature matrix")
        if arr.ndim != 2 or arr.shape[1] != self.space.n:
            raise DimensionMismatch(
                f"feature matrix has shape {arr.shape}, expected (k, {self.space.n})"
            )
        if arr.shape[0] < 1:
            raise DimensionMismatch("feature map needs at least one feature")
        object.__setattr__(self, "values", arr)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FeatureMap)
            and self.space == other.space
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.space, self.values.tobytes()))


def make_dist(space: OutcomeSpace, weights) -> Dist:
    """Normalize a nonnegative weight vector into a distribution.

    Raises :class:`NegativeWeight` on any negative entry and
    :class:`AllZero` when every weight vanishes.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (space.n,):
        raise DimensionMismatch(f"weights have shape {w.shape}, expected ({space.n},)")
    if not np.all(np.isfinite(w)):
        raise NegativeWeight("weights contain non-finite entries")
    if np.any(w < 0):
        raise NegativeWeight("weights must be nonnegative")
    total = float(w.sum())
    if total <= 0.0:
        raise AllZero("at least one weight must be positive")
    return Dist(space, w / total)


def expectation(P: Dist, h: FunctionOnSpace) -> float:
    """E_P[h] as a plain dot product."""
    _require_same_space(P, h)
    return float(P.p @ h.values)


def feature_means(P: Dist, phi: FeatureMap) -> np.ndarray:
    """Vector of feature expectations E_P[phi_j]."""
    _require_same_space(P, phi)
    return phi.values @ P.p


def _restrict_to_support(Q: Dist, phi: FeatureMap):
    """(mask, qs, phi_s): supp Q as a mask, and Q.p and phi restricted to it.

    Under full support qs and phi_s are ``Q.p`` and ``phi.values``
    themselves, not copies. Otherwise they are C-contiguous copies (a
    boolean column slice would come back Fortran-ordered and make every
    pass over phi_s strided). Either way they are read-only.
    """
    mask = Q.p > 0.0
    if mask.all():
        return mask, Q.p, phi.values
    qs, phi_s = Q.p[mask], phi.values.compress(mask, axis=1)
    qs.setflags(write=False)
    phi_s.setflags(write=False)
    return mask, qs, phi_s


def absolutely_continuous(P: Dist, Q: Dist) -> bool:
    """True iff support(P) is contained in support(Q)."""
    _require_same_space(P, Q)
    return bool(np.all(Q.p[P.p > 0.0] > 0.0))


def random_dist(space: OutcomeSpace, seed, min_mass: float = 0.0) -> Dist:
    """Seed-deterministic random distribution with masses >= min_mass."""
    n = space.n
    if not 0.0 <= min_mass < 1.0 / n:
        raise BadMinMass(f"min_mass must lie in [0, 1/{n})")
    rng = np.random.default_rng(seed)
    raw = rng.random(n) + 1e-9
    p = min_mass + (1.0 - n * min_mass) * (raw / raw.sum())
    return Dist(space, p)


def random_instance(seed, n: int, k: int):
    """Seed-deterministic (P, Q, phi) test instance.

    P and Q are full-support distributions on a fresh n-point space and
    phi is a k x n feature matrix with entries in [-1, 1].
    """
    space = OutcomeSpace.of_size(n)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), n, k]))
    min_mass = min(0.01, 0.5 / n)
    raw_p = rng.random(n) + 1e-9
    raw_q = rng.random(n) + 1e-9
    p = min_mass + (1.0 - n * min_mass) * (raw_p / raw_p.sum())
    q = min_mass + (1.0 - n * min_mass) * (raw_q / raw_q.sum())
    phi = FeatureMap(space, rng.uniform(-1.0, 1.0, size=(k, n)))
    return Dist(space, p), Dist(space, q), phi
