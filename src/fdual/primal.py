"""Supremum-side evaluation of restricted and regularized divergences.

For a linear discriminator class the intercept is optimized out
exactly, leaving the reduced concave objective

    J(a) = a . E_P[phi] - R(a . phi)

with R the intercept-optimized conjugate term from
:mod:`fdual.divergence`. Its gradient is ``E_P[phi] - E_Q~[phi]``,
where Q~ reweights Q by the conjugate slope q_i f*'(a . phi_i + b*) at
the optimal intercept b*, and its Hessian is ``-(sum w) Cov_w(phi)``
with w_i = q_i f*''(a . phi_i + b*) (for KL, w = Q~). Outside KL, b*
and both slopes come from one Newton root,
:func:`~fdual.divergence.intercept_root`, warm-started at the last b*.

Every generator and coefficient set is solved by one projected Newton
loop, on a 2-ball or at infinite radius, where it also certifies an
unbounded value or a face of the feature hull along whose normal the
supremum is approached. One optional smooth concave term joins J: the
quadratic coefficient penalty, or the log barrier of a finite 1- or
inf-ball, its weight cut by 10 per stage (Boyd and Vandenberghe,
*Convex Optimization*, 11.2). Total variation, whose conjugate has
kinks, is solved on its smoothing (Nesterov, 2005), cut by 10 per
stage, and reported at its exact objective at the final slope. Each
stage starts from the last one's optimum. A solve's ``pprime`` is the
conjugate-slope tilt of Q at its optimum, which the dual of
:mod:`fdual.dual` scores (at infinite radius as the moment projection,
and through it the fits of :mod:`fdual.estimators`).
"""

from __future__ import annotations

import copy
import itertools
import math
import threading
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from .discriminator import DiscriminatorSpec, FullSpace, QuadraticCoefficientPenalty
from .divergence import df_variational_full, intercept_ends, intercept_root, r_functional
from .errors import UnsupportedNorm, ValidationError
from .extreal import POS_INF, finite
from .fgen import FGenerator
from .space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    _require_same_space,
    _restrict_to_support,
    feature_means,
)

__all__ = [
    "PrimalConfig",
    "SolveReport",
    "project_ball",
    "restricted_div_primal",
    "regularized_div_primal",
    "newton_step",
]

LOG_EVERY = 50
RAY_NORM = 1e3
# h of an atom pinned off a face: f* there is -f(0) to the last bit.
PIN = -1e300
# Gap in a . phi that makes a split of supp Q a face candidate (see _face).
FACE_GAP = 8.0
# A barrier or smoothing path stops once the value it can give up is at most this.
PATH_GAP = 1e-10
# Per thread, the last (centered, weighted) pair of _ReducedObjective.moments.
_workspace = threading.local()


@dataclass(frozen=True)
class PrimalConfig:
    """Newton loop controls: iteration cap (over all stages), residual tolerance."""

    max_iters: int = 10_000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not 0.0 < self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a primal or dual solve.

    ``status`` is one of ``converged``, ``not_converged``, ``unbounded``
    or ``infeasible``; ``value`` is a float, and an infinite optimum is
    reported as +inf plus status, never raised. A primal solve's ``value_log``
    holds exact objective evaluations at logged iterates (every 50
    iterations plus the last, or the end of each barrier or smoothing
    stage): each entry is a lower bound on the true optimum. ``pprime`` is the
    intermediate distribution: the one the dual scores, or a linear primal
    solve's conjugate-slope tilt of Q at its optimum. ``intermediate``
    holds it, or for a primal solve builds it on first read (the fits'
    inner solves never read it). ``route`` names what produced the
    result: the primal's ``newton`` or ``closed_form``, or the dual's
    ``closed_form`` or ``primal_tilt``. ``conjugate``
    (linear primal solves of a smooth generator) returns (f*, f*', f*'')
    of ``h_opt`` per atom, 0 off supp Q, from the solve's last pass at
    its optimum.
    """

    value: float
    coefficients: np.ndarray | None = None
    intercept: float | None = None
    h_opt: FunctionOnSpace | None = None
    intermediate: Dist | Callable[[], Dist] | None = field(default=None, repr=False, compare=False)
    iterations: int = 0
    residual: float = math.nan
    status: str = "converged"
    attained: bool = True
    capped: bool = False
    gap_estimate: float | None = None
    value_log: tuple[float, ...] = ()
    fd_gradient_worst: float = 0.0
    notes: tuple[str, ...] = ()
    route: str = ""
    conjugate: Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]] | None = field(
        default=None, repr=False, compare=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @cached_property
    def pprime(self) -> Dist | None:
        return self.intermediate() if callable(self.intermediate) else self.intermediate


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as np.linalg.norm computes it."""
    return math.sqrt(float(v @ v))


def project_ball(a: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the 2-ball of the given radius (inf: none)."""
    if math.isinf(radius):
        return a
    nrm = _norm(a)
    return a if nrm <= radius else a * (radius / nrm)


def _centering_pair(shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two k x n buffers for :meth:`_ReducedObjective.moments`.

    They are kept while passes keep the shape of ``phi_s`` and replaced
    when it changes; the last shape's pair is released first, so the
    workspace never holds more than the two arrays one pass needs.
    """
    pair = getattr(_workspace, "pair", None)
    if pair is None or pair[0].shape != shape:
        pair = _workspace.pair = None
        pair = _workspace.pair = (np.empty(shape), np.empty(shape))
    return pair


class _ReducedObjective:
    """J(a) = a . m_P - R(a . phi) + term(a).

    ``term`` (None, or a smooth concave function of a returning its
    value, gradient, negative Hessian and gradient rounding bound) is the
    quadratic coefficient penalty or a ball's log barrier. ``pin`` (None,
    or 0 or ``PIN`` per atom of supp Q, added to h by :meth:`_hs`) holds
    atoms off a face at h = -inf, where f* = -f(0) and f*' = f*'' = 0 to
    the last bit: J is then the objective on the face plus f(0) times the
    mass off it. ``qs`` and ``phi_s`` restrict Q and phi to supp Q (see
    :func:`~fdual.space._restrict_to_support`): under full support they
    are ``Q.p`` and ``phi.values`` themselves. ``phi_top`` is max |phi|
    per feature over supp Q, ``phi_scale`` the same over the whole space.
    Neither forms |phi|, and :meth:`moments` writes its k x n
    intermediates into a per-thread workspace (:func:`_centering_pair`):
    on wide spaces fresh arrays of that size cost page faults on every
    pass.
    """

    def __init__(self, g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, term=None):
        _require_same_space(P, Q)
        _require_same_space(P, phi)
        self.g = g
        self.m_p = feature_means(P, phi)
        self.term = term
        self.mask, self.qs, self.phi_s = _restrict_to_support(Q, phi)
        self.phi_top = np.maximum(self.phi_s.max(axis=1, initial=0.0), -self.phi_s.min(axis=1, initial=0.0))
        self.pin: np.ndarray | None = None
        self.Q = Q
        self.phi = phi
        self.space = P.space
        self._b_hint: float | None = None
        self._last = None  # (a, f*, f*', f*'') over supp Q of the last moments pass
        self._is_kl = g.name == "kl"
        self._ends = intercept_ends(g, self.qs) if g.conjugate_smooth and not self._is_kl else None

    @cached_property
    def phi_scale(self) -> np.ndarray:
        values = self.phi.values
        return np.maximum(values.max(axis=1), -values.min(axis=1))

    def exact(self, a: np.ndarray) -> tuple[float, float]:
        """(J(a), optimal intercept), by exact evaluation.

        Where f* has kinks (total variation) R is the closed form of
        :func:`r_functional`, whose intercept puts max h at the closed end
        of the domain of f*.
        """
        if self.g.conjugate_smooth:
            val, _, _, b, _, _ = self.moments(a)
            return val, b
        h = a @ self.phi.values
        if self.pin is not None:
            h[self.mask] += self.pin
        r_val, b = r_functional(self.g, self.Q, FunctionOnSpace(self.space, h))
        val = float(a @ self.m_p) - r_val
        return (val if self.term is None else val + self.term(a)[0]), b

    def _hs(self, a: np.ndarray) -> np.ndarray:
        hs = a @ self.phi_s
        return hs if self.pin is None else hs + self.pin

    def moments(self, a: np.ndarray):
        """(J(a), grad J(a), C, intercept, size, gerr), C = -Hessian of J.

        ``size`` is the magnitude of the terms of J, the scale of its
        rounding error; ``gerr`` bounds the gradient's rounding error.
        Outside KL the conjugate slopes come from :func:`intercept_root`,
        which returns them at the intercept it finds, warm-started at
        the last one. The pass keeps f*, f*' and f*'' at h for
        :meth:`conjugate`. C is (centered * w) @ centered.T with
        centered = phi_s - mu; both k x n factors are written into this
        thread's workspace (:func:`_centering_pair`) rather than fresh
        arrays, with the same arithmetic, so C is the same to the bit.
        """
        hs = self._hs(a)
        lin = float(a @ self.m_p)
        if self._is_kl:
            m = float(hs.max())
            t = np.exp(hs - m)
            e = self.qs * t
            z = float(e.sum())
            w = e / z
            r = m + math.log(z)
            b = 1.0 - r
            size = abs(lin) + abs(r)
            mean = mu = self.phi_s @ w
            fs = fp = fpp = t / z  # f* = f*' = f*'' = e^(h + b - 1)
        else:
            g = self.g
            # Pinned atoms overflow to slopes of exactly 0.
            with np.errstate(over="ignore"):
                b, fp, fpp = intercept_root(g, self.qs, hs, self._ends, self._b_hint)
                self._b_hint = b
                fs = g.fstar_vec(hs + b)
                w = self.qs * fpp
                mean = self.phi_s @ (self.qs * fp)
            r = float(self.qs @ fs) - b
            size = abs(lin) + float(self.qs @ np.abs(fs)) + abs(b)
            # f*'' underflows on every atom where a smoothed kink is far from all of them.
            mu = self.phi_s @ w / max(float(w.sum()), np.finfo(float).tiny)
        self._last = (a, fs, fp, fpp)
        centered, weighted = _centering_pair(self.phi_s.shape)
        np.subtract(self.phi_s, mu[:, None], out=centered)
        cov = np.multiply(centered, w, out=weighted) @ centered.T
        val = lin - r
        grad = self.m_p - mean
        # Sums of n terms up to |E_P[phi]| or max |phi| (slopes sum to one), and
        # slopes moved by f*'' times the rounding of t = a . phi + b (k + 1 terms).
        k, n = self.phi_s.shape
        tau = (k + 1) * float(w.sum()) * (float(np.abs(a) @ self.phi_top) + abs(b))
        gerr = np.finfo(float).eps * _norm(n * (np.abs(self.m_p) + self.phi_top) + tau * self.phi_top)
        if self.term is not None:
            t_val, t_grad, t_curv, t_err = self.term(a)
            val += t_val
            size += abs(t_val)
            grad = grad + t_grad
            cov = cov + t_curv
            gerr += t_err
        return val, grad, cov, b, size, gerr

    def conjugate(self, a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f*, f*', f*'') at h = a . phi + b per atom, b the optimal intercept,
        0 off supp Q: from the last :meth:`moments` pass if it was at ``a``."""
        if self._last is None or self._last[0] is not a:
            self.moments(a)
        if self.qs is self.Q.p:  # full support
            return self._last[1:]
        out = (np.zeros(self.space.n), np.zeros(self.space.n), np.zeros(self.space.n))
        for full, part in zip(out, self._last[1:]):
            full[self.mask] = part
        return out

    def tilt(self, a: np.ndarray, b: float) -> Dist:
        """The conjugate-slope tilt q_i f*'(a . phi_i + b) of Q, normalized."""
        masses = np.zeros(self.space.n)
        hs = self._hs(a)
        with np.errstate(over="ignore"):  # pinned atoms overflow to slopes of exactly 0
            # The root's slopes carry its jump at the end of f*'s domain, if any.
            fp = self.g.fstar_prime_vec(hs + b) if self._ends is None else intercept_root(
                self.g, self.qs, hs, self._ends, b)[1]
            masses[self.mask] = self.qs * fp
        return Dist(self.space, masses / masses.sum())

    def fd_gradient(self, a: np.ndarray, value=None, step: float = 1e-6) -> np.ndarray:
        value = value or (lambda x: self.exact(x)[0])
        out = np.empty_like(a)
        for j in range(a.size):
            e = np.zeros_like(a)
            e[j] = step
            out[j] = (value(a + e) - value(a - e)) / (2.0 * step)
        return out


class _Solve(NamedTuple):
    """A solver's result; ``obj`` is the objective solved (pinned on a face),
    ``tilt`` gives the conjugate-slope tilt of Q at its optimum (None if unbounded)."""

    a: np.ndarray
    value: float
    intercept: float
    iterations: int
    residual: float
    status: str
    log: tuple[float, ...]
    fd_worst: float
    obj: _ReducedObjective
    tilt: Callable[[], Dist] | None = None


def _ball_model_max(cov: np.ndarray, rhs: np.ndarray, radius: float) -> np.ndarray:
    """argmax over ||x||_2 <= radius of rhs . x - x . cov . x / 2.

    ``cov`` is positive semidefinite. The maximizer solves
    (cov + lam I) x = rhs with lam >= 0 and lam (||x|| - radius) = 0.
    In the eigenbasis of cov, 1/||x(lam)|| - 1/radius is increasing and
    concave in lam, so Newton steps from a lam left of the root climb to
    it monotonically. Eigen-directions with no curvature and no rhs
    component are left out (the model is flat along them), which keeps
    the step free of rounding noise there.
    """
    eps = np.finfo(float).eps
    mu, vecs = np.linalg.eigh(cov)
    mu = np.where(mu > 64.0 * eps * mu.size * max(float(mu[-1]), 1e-300), mu, 0.0)
    r = vecs.T @ rhs
    flat = mu == 0.0
    r[flat & (np.abs(r) <= 64.0 * eps * (1.0 + float(np.abs(rhs).max())))] = 0.0
    r_flat = _norm(r[flat])
    # Where the curvature is far below rhs, ||x|| overflows to inf; see below.
    with np.errstate(over="ignore"):
        if r_flat == 0.0:
            coef = np.divide(r, mu, out=np.zeros_like(r), where=~flat)
            if _norm(coef) <= radius:
                return vecs @ coef
        lam = r_flat / radius
        for _ in range(100):
            denom = mu + lam
            coef = np.divide(r, denom, out=np.zeros_like(r), where=denom > 0.0)
            nrm = _norm(coef)
            if nrm <= radius:
                break
            if not nrm < 1e100:
                # Curvature this far below rhs is rounding: the model is linear,
                # and the secular equation would overflow.
                return vecs @ (r * (radius / _norm(r)))
            slope = float((coef**2 / np.where(denom > 0.0, denom, np.inf)).sum()) / nrm**3
            step = (1.0 / radius - 1.0 / nrm) / slope
            if not step > 1e-15 * lam:
                break
            lam += step
    return project_ball(vecs @ coef, radius)


def _rounding(obj: _ReducedObjective, a: np.ndarray) -> float:
    """Rounding bound of a . (phi_i - E_P[phi]), sums of n and k terms."""
    k, n = obj.phi.values.shape
    scale = float(np.abs(a) @ obj.phi_scale)
    return 8.0 * (n + k) * np.finfo(float).eps * scale


def _separates(obj: _ReducedObjective, a: np.ndarray) -> bool:
    """Whether a . E_P[phi] exceeds a . phi on all unpinned atoms, beyond rounding.

    Then J(t a) >= t (a . E_P[phi] - max a . phi) grows without bound:
    E_P[phi] lies outside the hull of those features.
    """
    return float(a @ obj.m_p) - float(np.max(obj._hs(a))) > _rounding(obj, a)


def face_splits(a: np.ndarray, u: np.ndarray, free: np.ndarray, points: np.ndarray, origin: np.ndarray,
                rounding):
    """Certified faces among the splits of the atoms ``free`` at a gap
    above ``FACE_GAP`` in ``u``, top face first.

    Yields (on, normal): the indices above the split and a unit normal.
    The normal is the part of ``a`` orthogonal to the columns ``rel[:, on]``
    of rel = points - origin (``origin`` a point of the face's affine
    hull); it certifies the face when normal . rel is zero on it and
    negative on the other free atoms, beyond ``rounding(normal)``. rel
    is formed only once some split passes the gap test.
    """
    order = free[np.argsort(-u[free], kind="stable")]
    cuts = np.flatnonzero(u[order[:-1]] - u[order[1:]] > FACE_GAP)
    rel = points - origin[:, None] if cuts.size else None
    for cut in cuts:
        on, off = order[: cut + 1], order[cut + 1 :]
        basis, sing, _ = np.linalg.svd(rel[:, on], full_matrices=False)
        basis = basis[:, sing > sing[0] * max(rel.shape) * np.finfo(float).eps]
        normal = a - basis @ (basis.T @ a)
        nrm = _norm(normal)
        if nrm == 0.0:
            continue
        normal /= nrm
        v, tol = normal @ rel, rounding(normal)
        if np.all(np.abs(v[on]) <= tol) and np.all(v[off] < -tol):
            yield on, normal


def _face(obj: _ReducedObjective, a: np.ndarray):
    """(face mask over supp Q, unit normal) of a face of the feature hull
    that E_P[phi] lies on, or None.

    Along a face normal the iterate keeps the face atoms O(1) apart in
    a . phi while the others fall O(||a||) below, so each split of the
    unpinned atoms at a gap above ``FACE_GAP`` is a candidate, certified
    by :func:`face_splits` relative to E_P[phi]. Then J(a + t n) tends to
    the objective on the face plus f(0) times the mass off it, and as
    f* >= -f(0) no a does better. Only generators with f'(0) = -inf get
    here: where f*' vanishes below a finite f'(0), pinning takes a finite
    step and the loop attains the face value itself.
    """
    u = a @ obj.phi_s
    free = u if obj.pin is None else u[obj.pin == 0.0]
    if float(free.max() - free.min()) <= FACE_GAP:
        return None
    with np.errstate(divide="ignore"):
        if obj.g.f_prime(0.0) > -math.inf:
            return None
    free = np.arange(u.size) if obj.pin is None else np.flatnonzero(obj.pin == 0.0)
    for on, normal in face_splits(a, u, free, obj.phi_s, obj.m_p, lambda nrm: _rounding(obj, nrm)):
        return np.isin(np.arange(u.size), on), normal
    return None


def _newton_ball(obj: _ReducedObjective, radius: float, cfg: PrimalConfig, a0=None) -> _Solve:
    """Projected Newton ascent on the 2-ball of ``radius``, any smooth f, from ``a0`` (or 0).

    It stops when the projected gradient step is at most ``tol`` (times
    the radius, where that is below one) plus the gradient's rounding
    bound (which alone can exceed ``tol`` at large ``a``), logs J every
    ``LOG_EVERY`` iterations and checks the gradient by finite
    differences there. The Armijo test allows a few
    ulps of the objective's terms as slack: near the optimum the true
    gain of a Newton step is below the rounding error of J, and without
    the slack backtracking rejects steps that are in fact exact.

    At infinite radius the step maximizes the model over a trust ball
    around ``a`` instead, of radius ``RAY_NORM`` at first and then twice
    the last accepted step. Where the tilt of Q has collapsed onto few
    atoms the model's curvature is at rounding level, and where the
    model is flat along a gradient direction it has no maximizer at
    all; the trust ball keeps either from throwing the iterate far off.
    Without a term the solve stops ``unbounded`` as soon as ``a``
    certifies it (:func:`_separates`). If f*' > 0 everywhere
    (f'(0) = -inf) and ``a`` certifies a face (:func:`_face`), the
    supremum is not attained: it is +inf if f(0) is, with the face normal
    as certificate, and otherwise the loop goes on with the atoms off the
    face pinned. Where f*' vanishes (Pearson), the plain loop attains it.
    """

    def project(x):
        return project_ball(x, radius)

    infinite = math.isinf(radius)
    rays = infinite and obj.term is None
    # On a ball smaller than one the first projected step is at most its radius.
    tol = cfg.tol * min(1.0, radius)

    def residual_at(a, grad):
        # Without a ball the projected step is the gradient itself, and
        # forming (a + grad) - a would lose it once a has grown large.
        return _norm(grad) if infinite else _norm(project(a + grad) - a)

    trust = RAY_NORM
    a = np.zeros(obj.m_p.shape[0]) if a0 is None else a0
    val, grad, cov, b, size, gerr = obj.moments(a)
    log = [val]
    fd_worst = 0.0
    status = "not_converged"
    stagnant = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        face = _face(obj, a) if rays else None
        if face is not None:
            on, normal = face
            if math.isinf(obj.g.f_at_zero):
                return _Solve(normal, math.inf, b, it, residual_at(a, grad), "unbounded",
                              tuple(log), fd_worst, obj)
            on_face = copy.copy(obj)
            on_face.pin = np.where(on, 0.0, PIN)
            budget = replace(cfg, max_iters=cfg.max_iters - it + 1)
            sub = _newton_ball(on_face, radius, budget)
            return sub._replace(iterations=it - 1 + sub.iterations, log=tuple(log) + sub.log,
                                fd_worst=max(fd_worst, sub.fd_worst))
        if residual_at(a, grad) <= tol + gerr < math.inf:
            status = "converged"
            break
        if infinite:
            if rays and _separates(obj, a):
                status = "unbounded"
                break
            d = _ball_model_max(cov, grad, trust)
        else:
            d = _ball_model_max(cov, grad + cov @ a, radius) - a
        gain = float(grad @ d)
        if infinite and not gain > 0.0:
            # The model has no ascent left at float resolution.
            break
        slack = 8.0 * np.finfo(float).eps * (1.0 + size)
        s = 1.0
        while s > 1e-15:
            cand = project(a + s * d)
            cand_out = obj.moments(cand)
            if cand_out[0] >= val + 1e-4 * s * gain - slack:
                break
            s *= 0.5
        else:
            # No ascent left at float resolution.
            break
        if cand_out[0] - val <= max(1e-15 * max(1.0, abs(val)), slack):
            stagnant += 1
            if stagnant >= 30:
                # Progress is below float resolution.
                break
        else:
            stagnant = 0
        a = cand
        val, grad, cov, b, size, gerr = cand_out
        trust = 2.0 * s * _norm(d)
        if it % LOG_EVERY == 0:
            log.append(val)
            fd = obj.fd_gradient(a, lambda x: obj.moments(x)[0])
            denom = max(1.0, _norm(grad))
            fd_worst = max(fd_worst, _norm(fd - grad) / denom)
    residual = residual_at(a, grad)
    if residual <= tol + gerr < math.inf:
        status = "converged"
    log.append(val)
    tilt = None if status == "unbounded" else partial(obj.tilt, a, b)
    return _Solve(a, val, b, it, residual, status, tuple(log), fd_worst, obj, tilt)


def _quadratic(weight: float):
    """The coefficient penalty -weight ||a||_2^2, as a term of J."""

    def term(a):
        return -(weight * float(a @ a)), -2.0 * weight * a, 2.0 * weight * np.eye(a.size), 0.0

    return term


def _barrier(p: float, radius: float, tau: float, k: int):
    """(term, m): tau times a self-concordant log barrier of the p-ball in R^k, p in {1, inf}.

    The term is -inf off the ball, and its gradient's rounding is about
    eps R times its curvature. At the optimum a of J + term, J(a) is
    within m tau of the supremum over the ball (Boyd and Vandenberghe,
    11.2). inf-ball: sum_j log(R - a_j) + log(R + a_j), m = 2k. 1-ball:
    sum_j log(t_j^2 - a_j^2) + log(R - sum_j t_j) maximized over t, m =
    2k + 1, at t_j = s + sqrt(s^2 + a_j^2) where the slack s solves
    R - (k + 1) s - sum_j sqrt(s^2 + a_j^2) = 0; eliminating t from the
    Hessian leaves a rank-one term (Sherman-Morrison).
    """
    eps = np.finfo(float).eps

    def outside(a):
        return -math.inf, np.zeros_like(a), np.zeros((a.size, a.size)), 0.0

    if math.isinf(p):
        def term(a):
            below, above = radius + a, radius - a
            if not (below.min() > 0.0 and above.min() > 0.0):
                return outside(a)
            curv = tau * (1.0 / below**2 + 1.0 / above**2)
            value = tau * float(np.log(below).sum() + np.log(above).sum())
            return value, tau * (1.0 / below - 1.0 / above), np.diag(curv), eps * radius * _norm(curv)

        return term, 2 * k

    def term(a):
        mag = np.abs(a)
        room = radius - float(mag.sum())
        if not room > 0.0:
            return outside(a)
        # The slack's equation is concave and decreasing in s, so Newton
        # steps from s = room / (k + 1), right of its root, descend to it.
        s = room / (k + 1)
        for _ in range(100):
            r = np.sqrt(s * s + a * a)
            step = (room - (k + 1) * s - float((s * s / (r + mag)).sum())) / (k + 1 + float((s / r).sum()))
            s += step
            if not step < -4.0 * eps * s:
                break
        r = np.sqrt(s * s + a * a)
        near, far = s + s * s / (r + mag), s + r + mag  # t - |a|, t + |a|
        minus, plus = np.where(a >= 0.0, near, far), np.where(a >= 0.0, far, near)  # t - a, t + a
        wm, wp = 1.0 / minus**2, 1.0 / plus**2
        both = wm + wp
        lean = (wm - wp) / both
        curv = np.diag(4.0 * wm * wp / both) + np.outer(lean, lean) / (s * s + float((1.0 / both).sum()))
        value = tau * (float(np.log(near).sum() + np.log(far).sum()) + math.log(s))
        return value, tau * (1.0 / plus - 1.0 / minus), tau * curv, eps * radius * tau * float(both.sum())

    return term, 2 * k + 1


def _stages(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, term, p: float, radius: float):
    """Smooth stand-ins for the problem, one per stage s = 0, 1, ...

    Yields (objective, bound): ``bound(solve)`` bounds how far the exact
    value at the stage's optimum falls below the supremum. A finite 1- or
    inf-ball becomes a log barrier of weight tau = 10^-s (bound m tau).
    Where f* has kinks it becomes its ``smoothing`` with mu = 0.1 * 10^-s,
    which exceeds f* by at most mu (1 + ln 2) on the domain of f*; moving
    the intercept down until max h meets the domain's end costs the
    overshoot, which the bound adds.
    """
    barrier = math.isfinite(radius) and p != 2.0
    for s in itertools.count():
        tau, mu = 10.0**-s, 0.1 * 10.0**-s
        stage_term, m = _barrier(p, radius, tau, phi.k) if barrier else (term, 0)
        stage = _ReducedObjective(g if g.conjugate_smooth else g.smoothing(mu), P, Q, phi, stage_term)

        def bound(out, mu=mu, total=m * tau):
            if not g.conjugate_smooth:
                top = float(out.obj._hs(out.a).max()) + out.intercept
                total += mu * (1.0 + math.log(2.0)) + max(top - g.fstar_domain_upper, 0.0)
            return total

        yield stage, bound


def _path(problem: _ReducedObjective, stages, radius: float, cfg: PrimalConfig) -> _Solve:
    """Newton solves of ``stages``, each from the last one's optimum, until a
    stage's bound is at most ``PATH_GAP``; ``max_iters`` caps them all.

    The value and intercept are ``problem``'s (pinned as the stage was),
    exact at the last stage's slope; the log holds that value per stage,
    each a lower bound. The tilt is the last stage's solved to ``tol``:
    past it the slopes' rounding (about eps / mu at a smoothed kink)
    swamps the tilt, while the exact value still gains.
    """
    log, its, fd_worst, out, tilt = [], 0, 0.0, None, None
    for stage, bound in stages:
        if out is not None:
            stage._b_hint = out.obj._b_hint
        out = _newton_ball(stage, radius, replace(cfg, max_iters=cfg.max_iters - its),
                           None if out is None else out.a)
        its += out.iterations
        fd_worst = max(fd_worst, out.fd_worst)
        if out.status == "unbounded":
            return out._replace(iterations=its, log=tuple(log), fd_worst=fd_worst)
        problem.pin = out.obj.pin
        value, b = problem.exact(out.a)
        log.append(value)
        if tilt is None or out.residual <= cfg.tol:
            tilt = out.tilt
        gap = bound(out)
        if gap <= PATH_GAP or its >= cfg.max_iters:
            break
    status = out.status if gap <= PATH_GAP else "not_converged"
    return out._replace(value=value, intercept=b, iterations=its, status=status, log=tuple(log),
                        fd_worst=fd_worst, obj=problem, tilt=tilt)


def _solve(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, term, p: float, radius: float,
           cfg: PrimalConfig, a0=None) -> _Solve:
    """Maximize J(a) + term(a) over the p-ball of ``radius``; the direct Newton route starts at ``a0``."""
    problem = _ReducedObjective(g, P, Q, phi, term)
    if g.conjugate_smooth and (p == 2.0 or math.isinf(radius)):
        return _newton_ball(problem, radius, cfg, a0)
    if math.isfinite(radius) and p not in (1.0, 2.0, math.inf):
        raise UnsupportedNorm(f"finite balls implemented for p in {{1, 2, inf}}, got {p}")
    return _path(problem, _stages(g, P, Q, phi, term, p, radius), radius if p == 2.0 else math.inf, cfg)


def _report(out: _Solve, phi: FeatureMap) -> SolveReport:
    """SolveReport of a linear-class solve.

    On a face the optimal discriminator is -inf off the face; ``h_opt``
    holds ``PIN`` there, where f*' is 0 and f* is -f(0) to the last bit.
    """
    common = dict(coefficients=out.a, intercept=out.intercept, iterations=out.iterations,
                  residual=out.residual, value_log=out.log, fd_gradient_worst=out.fd_worst,
                  route="newton")
    if out.status == "unbounded":
        return SolveReport(value=POS_INF, status="unbounded", attained=False, **common)
    h = out.a @ phi.values + out.intercept
    attained = out.obj.pin is None
    notes = ()
    if not attained:
        h[out.obj.mask] += out.obj.pin
        notes = ("supremum approached along a face normal of the feature hull, not attained; "
                 "coefficients solve the problem restricted to that face",)
    return SolveReport(
        value=finite(out.value),
        h_opt=FunctionOnSpace(phi.space, h),
        intermediate=out.tilt,
        status=out.status,
        attained=attained,
        notes=notes,
        conjugate=partial(out.obj.conjugate, out.a) if out.obj.g.conjugate_smooth else None,
        **common,
    )


def restricted_div_primal(
    g: FGenerator, P: Dist, Q: Dist, spec: DiscriminatorSpec, cfg: PrimalConfig | None = None,
    *, start: np.ndarray | None = None,
) -> SolveReport:
    """Divergence restricted to a discriminator class, supremum side.

    The full space delegates to the separable variational solver. A
    linear ball runs the Newton loop: directly on a 2-ball or at infinite
    radius, behind a log barrier on a finite 1- or inf-ball, and for
    total variation on its smoothed conjugate (see :func:`_stages`). At
    infinite radius, feature means unreachable inside the support of Q
    make the objective grow along a ray, reported as status ``unbounded``
    with value +inf, and means on a face of the features' hull give a
    supremum that is not attained (``attained`` false). ``pprime`` is the
    conjugate-slope tilt of Q at the optimum. ``start`` (coefficients in
    the ball) warm-starts the direct route, a smooth generator on a 2-ball
    or at infinite radius, for a caller that solves nearby problems in
    turn; the other routes start from 0.
    """
    cfg = cfg or PrimalConfig()
    _require_same_space(P, Q)
    if isinstance(spec, FullSpace):
        dv = df_variational_full(g, P, Q)
        return SolveReport(
            value=dv.value,
            h_opt=dv.attained_h,
            iterations=0,
            residual=0.0,
            status="converged",
            attained=math.isfinite(dv.value),
            capped=dv.capped,
            value_log=(dv.value,) if math.isfinite(dv.value) else (),
            route="closed_form",
        )
    _require_same_space(P, spec.phi)
    return _report(_solve(g, P, Q, spec.phi, None, spec.p, float(spec.radius), cfg, start), spec.phi)


def newton_step(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, radius: float, a: np.ndarray):
    """One step of the Newton loop of a smooth generator on the 2-ball of
    ``radius`` (or at infinite radius), from ``a``, with no tolerance test.

    One :meth:`~_ReducedObjective.moments` pass gives J(a) and the model
    step, as :func:`_newton_ball` takes it. Returns (value, stepped
    iterate, conjugate, dh): the value is J(a) plus the model's gain, the
    supremum to second order in the step when ``a`` is near the optimum;
    ``conjugate`` is (f*, f*', f*'') at ``a``, as ``SolveReport.conjugate``
    gives them; ``dh`` is the first-order move of h = a . phi + b per atom,
    the optimal intercept moving with the step (off supp Q, where those
    terms are 0, it is immaterial). It serves a caller that follows the
    optimum along a path of nearby Q, from the last iterate moved to
    first order.
    """
    obj = _ReducedObjective(g, P, Q, phi)
    val, grad, cov, _, _, _ = obj.moments(a)
    if math.isinf(radius):
        step = _ball_model_max(cov, grad, RAY_NORM)
    else:
        step = _ball_model_max(cov, grad + cov @ a, radius) - a
    gain = float(grad @ step) - 0.5 * float(step @ cov @ step)
    conjugate = obj.conjugate(a)
    w = Q.p * conjugate[2]
    shift = float(step @ (phi.values @ w)) / max(float(w.sum()), np.finfo(float).tiny)
    return val + max(gain, 0.0), a + step, conjugate, step @ phi.values - shift


def regularized_div_primal(
    g: FGenerator, P: Dist, Q: Dist, reg: QuadraticCoefficientPenalty, cfg: PrimalConfig | None = None
) -> SolveReport:
    """Soft-regularized divergence: maximize J(a) - weight * ||a||_2^2.

    Strongly concave and unconstrained: the Newton loop runs without a
    ball, with the penalty as its term (for total variation, on the
    smoothed conjugate).
    """
    cfg = cfg or PrimalConfig()
    _require_same_space(P, Q)
    _require_same_space(P, reg.phi)
    return _report(_solve(g, P, Q, reg.phi, _quadratic(reg.weight), 2.0, math.inf, cfg), reg.phi)
