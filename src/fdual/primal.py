"""Supremum-side evaluation of restricted and regularized divergences.

For a linear discriminator class the intercept is optimized out
exactly, leaving the reduced concave objective

    J(a) = a . E_P[phi] - R(a . phi)

with R the intercept-optimized conjugate term from
:mod:`fdual.divergence`. Its gradient is ``E_P[phi] - E_Q~[phi]``,
where Q~ reweights Q by the conjugate slope q_i f*'(a . phi_i + b*) at
the optimal intercept b*, and its Hessian is ``-(sum w) Cov_w(phi)``
with w_i = q_i f*''(a . phi_i + b*) (for KL, w = Q~).

Every smooth generator is solved by one projected Newton loop, on a
2-ball, at infinite radius for any p, and under the quadratic
coefficient penalty. At infinite radius the loop also certifies an
unbounded value, or a face of the feature hull along whose normal the
supremum is approached; the moment projection of :mod:`fdual.dual`,
and through it the exponential-family fits of :mod:`fdual.estimators`,
read the conjugate-slope tilt of that solve. Total variation, whose
conjugate has kinks, and p in {1, inf} balls of finite radius run
projected gradient ascent with a backtracking (Armijo) line search.
Both loops share the stopping rule, the value log and a
finite-difference gradient check every 50 iterations. Smooth
generators take the optimal intercept from a safeguarded Newton
iteration, total variation from the bisection of ``r_functional``.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .discriminator import DiscriminatorSpec, FullSpace, QuadraticCoefficientPenalty
from .divergence import df_variational_full, r_functional
from .errors import UnsupportedNorm, ValidationError
from .extreal import ExtReal, POS_INF, finite
from .fgen import FGenerator
from .space import Dist, FeatureMap, FunctionOnSpace, _require_same_space, feature_means

__all__ = [
    "PrimalConfig",
    "SolveReport",
    "project_ball",
    "restricted_div_primal",
    "regularized_div_primal",
]

LOG_EVERY = 50
RAY_NORM = 1e3
# h of an atom pinned off a face: f* there is -f(0) to the last bit.
PIN = -1e300
# Gap in a . phi that makes a split of supp Q a face candidate (see _face).
FACE_GAP = 8.0


@dataclass(frozen=True)
class PrimalConfig:
    """Ascent controls: iteration cap, initial step, residual tolerance.

    ``seed`` only matters for consumers that randomize restarts; the
    concave solve itself is deterministic from the zero start.
    """

    max_iters: int = 10_000
    step_init: float = 1.0
    tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a primal or dual solve.

    ``status`` is one of ``converged``, ``not_converged``, ``unbounded``
    or ``infeasible``; infinite optima are reported through ``value``
    plus status, never raised. ``value_log`` holds exact objective
    evaluations at logged iterates (every 50 iterations plus the last):
    each entry is a valid one-sided bound on the true optimum.
    ``route`` names what produced the result: the primal's ``newton``,
    ``ascent``, ``multistart`` or ``closed_form``, the moment
    projection's ``newton`` or ``lagrangian``, or the dual stage whose
    candidate was returned.
    """

    value: ExtReal
    coefficients: np.ndarray | None = None
    intercept: float | None = None
    h_opt: FunctionOnSpace | None = None
    pprime: Dist | None = None
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

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as np.linalg.norm computes it."""
    return math.sqrt(float(v @ v))


def project_ball(a: np.ndarray, p: float, radius: float) -> np.ndarray:
    """Euclidean projection onto the p-norm ball, p in {1, 2, inf}."""
    if math.isinf(radius):
        return a
    if math.isinf(p):
        return np.clip(a, -radius, radius)
    if p == 2.0:
        nrm = _norm(a)
        return a if nrm <= radius else a * (radius / nrm)
    if p == 1.0:
        if float(np.sum(np.abs(a))) <= radius:
            return a
        # Duchi et al. sorting projection onto the l1 ball.
        u = np.sort(np.abs(a))[::-1]
        css = np.cumsum(u)
        rho = np.nonzero(u * np.arange(1, a.size + 1) > (css - radius))[0][-1]
        theta = (css[rho] - radius) / (rho + 1.0)
        return np.sign(a) * np.maximum(np.abs(a) - theta, 0.0)
    raise UnsupportedNorm(f"projection implemented for p in {{1, 2, inf}}, got {p}")


class _ReducedObjective:
    """J(a) = a . m_P - R(a . phi) - quad_weight * ||a||_2^2.

    ``pin`` (None, or 0 or ``PIN`` per atom of supp Q, added to h by
    :meth:`_hs`) holds atoms off a face at h = -inf,
    where f* = -f(0) and f*' = f*'' = 0 to the last bit: J is then the
    objective on the face plus f(0) times the mass off it.
    """

    def __init__(self, g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, quad_weight: float = 0.0):
        _require_same_space(P, Q)
        _require_same_space(P, phi)
        self.g = g
        self.m_p = feature_means(P, phi)
        self.quad_weight = quad_weight
        self.mask = Q.p > 0.0
        self.qs = Q.p[self.mask]
        self.phi_s = phi.values[:, self.mask]
        self.phi_top = np.abs(self.phi_s).max(axis=1, initial=0.0)
        self.pin: np.ndarray | None = None
        self.Q = Q
        self.phi = phi
        self.space = P.space
        self._b_hint: float | None = None
        self._is_kl = g.name == "kl"

    def _inner(self, a: np.ndarray) -> tuple[float, float]:
        """(R(a . phi), optimal intercept)."""
        hs = a @ self.phi_s
        if self._is_kl:
            m = float(np.max(hs))
            lse = m + math.log(float(self.qs @ np.exp(hs - m)))
            return lse, 1.0 - lse
        if self.g.conjugate_smooth:
            b = self._intercept(hs)
            fs, _ = self.g.fstar_vec(hs + b)
            return float(self.qs @ fs) - b, b
        h_full = FunctionOnSpace(self.space, a @ self.phi.values)
        val, b = r_functional(self.g, self.Q, h_full, b_hint=self._b_hint)
        self._b_hint = b
        return val, b

    def value(self, a: np.ndarray) -> float:
        r_val, _ = self._inner(a)
        return float(a @ self.m_p) - r_val - self.quad_weight * float(a @ a)

    def value_grad_intercept(self, a: np.ndarray):
        r_val, b = self._inner(a)
        hs = a @ self.phi_s
        if self._is_kl:
            w = self.qs * np.exp(hs + (b - 1.0))
        else:
            w = self.qs * self.g.fstar_prime_vec(hs + b)
        grad = self.m_p - self.phi_s @ w - 2.0 * self.quad_weight * a
        val = float(a @ self.m_p) - r_val - self.quad_weight * float(a @ a)
        return val, grad, b

    def _hs(self, a: np.ndarray) -> np.ndarray:
        hs = a @ self.phi_s
        return hs if self.pin is None else hs + self.pin

    def _intercept(self, hs: np.ndarray) -> float:
        """b* with d(b) = E_Q[f*'(h + b)] - 1 = 0, by safeguarded Newton steps.

        d is nondecreasing and convex, d(f'(1) - max h) <= 0 as f*'(f'(1))
        = 1, and d -> +inf at the end U - max h of the domain of f*. Newton
        steps land right of the root, then descend to it monotonically.
        """
        g, qs, top = self.g, self.qs, float(hs.max())
        lo, hi = g.f_prime(1.0) - top, g.fstar_box_upper(math.inf, margin=0.0) - top
        b = self._b_hint if self._b_hint is not None and lo < self._b_hint < hi else lo
        for _ in range(200):
            t = hs + b
            excess = float(qs @ g.fstar_prime_vec(t)) - 1.0
            lo, hi = (lo, b) if excess > 0.0 else (b, hi)
            slope = float(qs @ g.fstar_second_vec(t))
            nb = b - excess / slope if slope > 0.0 else hi
            if excess == 0.0 or abs(nb - b) <= 2.0 * np.finfo(float).eps * (1.0 + abs(b)):
                break
            b = nb if lo < nb < hi else 0.5 * (lo + hi)
        self._b_hint = b
        return b

    def moments(self, a: np.ndarray):
        """(J(a), grad J(a), C, intercept, size, gerr), C = -Hessian of J.

        ``size`` is the magnitude of the terms of J, the scale of its
        rounding error; ``gerr`` bounds the gradient's rounding error.
        """
        hs = self._hs(a)
        lin = float(a @ self.m_p)
        if self._is_kl:
            m = float(hs.max())
            e = self.qs * np.exp(hs - m)
            z = float(e.sum())
            w = e / z
            r = m + math.log(z)
            b = 1.0 - r
            size = abs(lin) + abs(r)
            mean = mu = self.phi_s @ w
        else:
            g = self.g
            # Pinned atoms overflow to slopes of exactly 0.
            with np.errstate(over="ignore"):
                b = self._intercept(hs)
                t = hs + b
                fs, _ = g.fstar_vec(t)
                w = self.qs * g.fstar_second_vec(t)
                mean = self.phi_s @ (self.qs * g.fstar_prime_vec(t))
            r = float(self.qs @ fs) - b
            size = abs(lin) + float(self.qs @ np.abs(fs)) + abs(b)
            mu = self.phi_s @ w / float(w.sum())
        centered = self.phi_s - mu[:, None]
        cov = (centered * w) @ centered.T
        val = lin - r
        grad = self.m_p - mean
        # Sums of n terms up to |E_P[phi]| or max |phi| (slopes sum to one), and
        # slopes moved by f*'' times the rounding of t = a . phi + b (k + 1 terms).
        k, n = self.phi_s.shape
        tau = (k + 1) * float(w.sum()) * (float(np.abs(a) @ self.phi_top) + abs(b))
        gerr = np.finfo(float).eps * _norm(n * (np.abs(self.m_p) + self.phi_top) + tau * self.phi_top)
        if self.quad_weight:
            quad = self.quad_weight * float(a @ a)
            val -= quad
            size += quad
            grad = grad - 2.0 * self.quad_weight * a
            cov = cov + 2.0 * self.quad_weight * np.eye(a.size)
        return val, grad, cov, b, size, gerr

    def fd_gradient(self, a: np.ndarray, value=None, step: float = 1e-6) -> np.ndarray:
        value = value or self.value
        out = np.empty_like(a)
        for j in range(a.size):
            e = np.zeros_like(a)
            e[j] = step
            out[j] = (value(a + e) - value(a - e)) / (2.0 * step)
        return out


class _Solve(NamedTuple):
    """A solver's result; ``obj`` is the objective solved (pinned on a face)."""

    a: np.ndarray
    value: float
    intercept: float
    iterations: int
    residual: float
    status: str
    log: tuple[float, ...]
    fd_worst: float
    obj: _ReducedObjective


def _ascend(obj: _ReducedObjective, project, cfg: PrimalConfig, detect_ray: bool, a0=None):
    """Projected gradient ascent with Armijo backtracking.

    Returns a :class:`_Solve`. Ray detection flags an objective that keeps improving
    along an unbounded direction (only possible without a ball).
    """
    a = np.zeros(obj.m_p.shape[0]) if a0 is None else np.asarray(a0, dtype=float).copy()
    val, grad, b = obj.value_grad_intercept(a)
    step = cfg.step_init
    log = [val]
    fd_worst = 0.0
    residual = math.inf
    status = "not_converged"
    stagnant = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        moved = project(a + grad)
        residual = _norm(moved - a)
        if residual <= cfg.tol:
            status = "converged"
            break
        if detect_ray and _norm(a) > RAY_NORM:
            if float(grad @ a) / _norm(a) > 1e-12:
                status = "unbounded"
                break
        s = step
        cand = a
        cand_val = val
        while s > 1e-15:
            cand = project(a + s * grad)
            cand_val = obj.value(cand)
            gain = float(grad @ (cand - a))
            if cand_val >= val + 1e-4 * gain:
                break
            s *= 0.5
        if cand_val <= val and s <= 1e-15:
            # No ascent direction left at float resolution.
            break
        if cand_val - val <= 1e-15 * max(1.0, abs(val)):
            stagnant += 1
            if stagnant >= 30:
                # Progress is below float resolution; the residual floor
                # has been reached even if it sits above tol.
                break
        else:
            stagnant = 0
        a = cand
        val, grad, b = obj.value_grad_intercept(a)
        step = min(s * 2.0, 64.0)
        if it % LOG_EVERY == 0:
            log.append(val)
            fd = obj.fd_gradient(a)
            denom = max(1.0, _norm(grad))
            fd_worst = max(fd_worst, _norm(fd - grad) / denom)
    moved = project(a + grad)
    residual = _norm(moved - a)
    if residual <= cfg.tol:
        status = "converged"
    log.append(val)
    return _Solve(a, val, b, it, residual, status, tuple(log), fd_worst, obj)


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
    return project_ball(vecs @ coef, 2.0, radius)


def _rounding(obj: _ReducedObjective, a: np.ndarray) -> float:
    """Rounding bound of a . (phi_i - E_P[phi]), sums of n and k terms."""
    k, n = obj.phi.values.shape
    scale = float(np.abs(a) @ np.max(np.abs(obj.phi.values), axis=1))
    return 8.0 * (n + k) * np.finfo(float).eps * scale


def _separates(obj: _ReducedObjective, a: np.ndarray) -> bool:
    """Whether a . E_P[phi] exceeds a . phi on all unpinned atoms, beyond rounding.

    Then J(t a) >= t (a . E_P[phi] - max a . phi) grows without bound:
    E_P[phi] lies outside the hull of those features.
    """
    return float(a @ obj.m_p) - float(np.max(obj._hs(a))) > _rounding(obj, a)


def face_splits(a: np.ndarray, u: np.ndarray, free: np.ndarray, rel: np.ndarray, rounding):
    """Certified faces among the splits of the atoms ``free`` at a gap
    above ``FACE_GAP`` in ``u``, top face first.

    Yields (on, normal): the indices above the split and a unit normal.
    The normal is the part of ``a`` orthogonal to the columns ``rel[:, on]``
    (points relative to one on the face); it certifies the face when
    normal . rel is zero on it and negative on the other free atoms,
    beyond ``rounding(normal)``.
    """
    order = free[np.argsort(-u[free], kind="stable")]
    for cut in np.flatnonzero(u[order[:-1]] - u[order[1:]] > FACE_GAP):
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
    rel = obj.phi_s - obj.m_p[:, None]
    for on, normal in face_splits(a, u, free, rel, lambda nrm: _rounding(obj, nrm)):
        return np.isin(np.arange(u.size), on), normal
    return None


def _newton_ball(obj: _ReducedObjective, radius: float, cfg: PrimalConfig) -> _Solve:
    """Projected Newton ascent on the 2-ball of ``radius``, any smooth f.

    Same stopping rule (plus the gradient's rounding bound, which alone
    can exceed ``tol`` at large ``a``), value log and finite-difference
    cross-check as :func:`_ascend`. The Armijo test allows a few ulps of
    the objective's terms as slack: near the optimum the true gain of a
    Newton step is below the rounding error of J, and without the slack
    backtracking rejects steps that are in fact exact.

    At infinite radius the step maximizes the model over a trust ball
    around ``a`` instead, of radius ``RAY_NORM`` at first and then twice
    the last accepted step. Where the tilt of Q has collapsed onto few
    atoms the model's curvature is at rounding level, and where the
    model is flat along a gradient direction it has no maximizer at
    all; the trust ball keeps either from throwing the iterate far off.
    Without a coefficient penalty the solve stops ``unbounded`` as soon
    as ``a`` certifies it (:func:`_separates`). If f*' > 0 everywhere
    (f'(0) = -inf) and ``a`` certifies a face (:func:`_face`), the
    supremum is not attained: it is +inf if f(0) is, with the face normal
    as certificate, and otherwise the loop goes on with the atoms off the
    face pinned. Where f*' vanishes (Pearson), the plain loop attains it.
    """

    def project(x):
        return project_ball(x, 2.0, radius)

    infinite = math.isinf(radius)
    rays = infinite and not obj.quad_weight

    def residual_at(a, grad):
        # Without a ball the projected step is the gradient itself, and
        # forming (a + grad) - a would lose it once a has grown large.
        return _norm(grad) if infinite else _norm(project(a + grad) - a)

    trust = RAY_NORM
    a = np.zeros(obj.m_p.shape[0])
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
            if not obj.g.f_at_zero.is_finite:
                return _Solve(normal, math.inf, b, it, residual_at(a, grad), "unbounded",
                              tuple(log), fd_worst, obj)
            on_face = copy.copy(obj)
            on_face.pin = np.where(on, 0.0, PIN)
            budget = replace(cfg, max_iters=cfg.max_iters - it + 1)
            sub = _newton_ball(on_face, radius, budget)
            return sub._replace(iterations=it - 1 + sub.iterations, log=tuple(log) + sub.log,
                                fd_worst=max(fd_worst, sub.fd_worst))
        if residual_at(a, grad) <= cfg.tol + gerr:
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
    if residual <= cfg.tol + gerr:
        status = "converged"
    log.append(val)
    return _Solve(a, val, b, it, residual, status, tuple(log), fd_worst, obj)


def _solve_starts(obj: _ReducedObjective, project, cfg: PrimalConfig, detect_ray: bool, scale: float):
    """Run the ascent, adding seeded restarts for nonsmooth conjugates.

    A kink of f* can stall the subgradient selection at a
    non-optimal stationary-looking point, so piecewise-linear
    generators get extra seeded starts and the best value wins. Every
    start's logged values are exact evaluations, hence valid lower
    bounds; the concatenated log is reported. Returns (solve, notes,
    route).
    """
    if obj.g.conjugate_smooth:
        return _ascend(obj, project, cfg, detect_ray), (), "ascent"
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, obj.m_p.shape[0]]))
    starts = [None] + [project(rng.normal(size=obj.m_p.shape[0]) * scale) for _ in range(3)]
    best = None
    total_iters = 0
    logs: list[float] = []
    fd_worst = 0.0
    for a0 in starts:
        out = _ascend(obj, project, cfg, detect_ray, a0)
        total_iters += out.iterations
        logs.extend(out.log)
        fd_worst = max(fd_worst, out.fd_worst)
        if out.status == "unbounded":
            best = out
            break
        if best is None or out.value > best.value:
            best = out
    notes = (
        "nonsmooth conjugate: stationarity of a subgradient selection does "
        "not certify optimality; best of seeded multistart reported",
    )
    best = best._replace(iterations=total_iters, log=tuple(logs), fd_worst=fd_worst)
    return best, notes, "multistart"


def _report(out: _Solve, phi: FeatureMap, notes: tuple[str, ...], route: str) -> SolveReport:
    """SolveReport of a linear-class solve.

    On a face the optimal discriminator is -inf off the face; ``h_opt``
    holds ``PIN`` there, where f*' is 0 and f* is -f(0) to the last bit.
    """
    common = dict(coefficients=out.a, intercept=out.intercept, iterations=out.iterations,
                  residual=out.residual, value_log=out.log, fd_gradient_worst=out.fd_worst,
                  route=route)
    if out.status == "unbounded":
        return SolveReport(value=POS_INF, status="unbounded", attained=False, notes=notes, **common)
    h = out.a @ phi.values + out.intercept
    attained = out.obj.pin is None
    if not attained:
        h[out.obj.mask] += out.obj.pin
        notes += ("supremum approached along a face normal of the feature hull, not attained; "
                  "coefficients solve the problem restricted to that face",)
    return SolveReport(
        value=finite(out.value),
        h_opt=FunctionOnSpace(phi.space, h),
        status=out.status,
        attained=attained,
        notes=notes,
        **common,
    )


def restricted_div_primal(
    g: FGenerator, P: Dist, Q: Dist, spec: DiscriminatorSpec, cfg: PrimalConfig | None = None
) -> SolveReport:
    """Divergence restricted to a discriminator class, supremum side.

    The full space delegates to the separable variational solver. A
    linear ball runs the Newton loop for smooth generators on a 2-ball or
    at infinite radius, and the reduced ascent otherwise. At infinite
    radius, feature means unreachable inside the support of Q make the
    objective grow along a ray, reported as status ``unbounded`` with
    value +inf, and means on a face of the features' hull give a
    supremum that is not attained (``attained`` false).
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
            attained=dv.value.is_finite,
            capped=dv.capped,
            value_log=(float(dv.value),) if dv.value.is_finite else (),
            route="closed_form",
        )
    if not spec.intercept:
        raise ValidationError(
            "intercept-free linear classes break the intercept reduction; "
            "they exist only as a test hook"
        )
    _require_same_space(P, spec.phi)
    radius = float(spec.radius)
    obj = _ReducedObjective(g, P, Q, spec.phi)

    if g.conjugate_smooth and (spec.p == 2.0 or math.isinf(radius)):
        out, notes, route = _newton_ball(obj, radius, cfg), (), "newton"
    else:
        scale = radius if spec.radius.is_finite else 1.0
        project = lambda x: project_ball(x, spec.p, radius)
        out, notes, route = _solve_starts(obj, project, cfg, math.isinf(radius), scale)
    return _report(out, spec.phi, notes, route)


def regularized_div_primal(
    g: FGenerator, P: Dist, Q: Dist, reg: QuadraticCoefficientPenalty, cfg: PrimalConfig | None = None
) -> SolveReport:
    """Soft-regularized divergence: maximize J(a) - weight * ||a||_2^2.

    Strongly concave and unconstrained: smooth generators run the Newton
    loop without a ball, total variation the seeded backtracking ascent.
    """
    cfg = cfg or PrimalConfig()
    _require_same_space(P, Q)
    _require_same_space(P, reg.phi)
    obj = _ReducedObjective(g, P, Q, reg.phi, quad_weight=reg.weight)
    if g.conjugate_smooth:
        out, notes, route = _newton_ball(obj, math.inf, cfg), (), "newton"
    else:
        out, notes, route = _solve_starts(obj, lambda x: x, cfg, False, 1.0)
    return _report(out, reg.phi, notes, route)
