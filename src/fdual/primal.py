"""Supremum-side evaluation of restricted and regularized divergences.

For a linear discriminator class the intercept is optimized out
exactly, leaving the reduced concave objective

    J(a) = a . E_P[phi] - R(a . phi)

with R the intercept-optimized conjugate term from
:mod:`fdual.divergence`. J is maximized by projected gradient ascent
with a backtracking (Armijo) line search; the gradient is
``E_P[phi] - E_Q~[phi]`` where Q~ reweights Q by the conjugate slope at
the optimal intercept, and it is cross-checked against central finite
differences every 50 iterations.

KL on a 2-ball, and KL at infinite radius for any p, takes a
second-order path instead: R is the log partition function, so one
exponential per iterate gives the value, the gradient
``E_P[phi] - E_{Q_a}[phi]`` and the Hessian ``-Cov_{Q_a}(phi)`` of the
tilt Q_a of Q. Each step maximizes the quadratic model over the ball
(at infinite radius, over a trust ball around the iterate) by solving
the secular equation of its Lagrange multiplier, then backtracks on the
exact value. The stopping rule, the value log and the finite-difference
cross-check are the ascent's; at infinite radius an iterate that
separates E_P[phi] from the features on supp Q certifies the value
unbounded. This is the only Newton loop on the KL log partition
function: the KL moment projection of :mod:`fdual.dual`, and through it
the exponential-family fits of :mod:`fdual.estimators`, call it at
infinite radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """J(a) = a . m_P - R(a . phi) - quad_weight * ||a||_2^2."""

    def __init__(self, g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap, quad_weight: float = 0.0):
        _require_same_space(P, Q)
        _require_same_space(P, phi)
        self.g = g
        self.m_p = feature_means(P, phi)
        self.quad_weight = quad_weight
        mask = Q.p > 0.0
        self.qs = Q.p[mask]
        self.phi_s = phi.values[:, mask]
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

    def kl_moments(self, a: np.ndarray):
        """KL only: (J(a), grad J(a), Cov_{Q_a}(phi), intercept, size).

        ``size`` is the magnitude of the two terms of J, the scale of
        its rounding error.
        """
        hs = a @ self.phi_s
        m = float(hs.max())
        e = self.qs * np.exp(hs - m)
        z = float(e.sum())
        w = e / z
        lse = m + math.log(z)
        lin = float(a @ self.m_p)
        mean = self.phi_s @ w
        centered = self.phi_s - mean[:, None]
        cov = (centered * w) @ centered.T
        return lin - lse, self.m_p - mean, cov, 1.0 - lse, abs(lin) + abs(lse)

    def fd_gradient(self, a: np.ndarray, step: float = 1e-6) -> np.ndarray:
        out = np.empty_like(a)
        for j in range(a.size):
            e = np.zeros_like(a)
            e[j] = step
            out[j] = (self.value(a + e) - self.value(a - e)) / (2.0 * step)
        return out


def _ascend(obj: _ReducedObjective, project, cfg: PrimalConfig, detect_ray: bool, a0=None):
    """Projected gradient ascent with Armijo backtracking.

    Returns (a, value, intercept, iterations, residual, status, log,
    fd_worst). Ray detection flags an objective that keeps improving
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
    return a, val, b, it, residual, status, tuple(log), fd_worst


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


def _separates(obj: _ReducedObjective, a: np.ndarray) -> bool:
    """Whether a . E_P[phi] exceeds a . phi on all of supp Q.

    Then J(t a) >= t (a . E_P[phi] - max a . phi) grows without bound,
    so ``a`` certifies that the KL supremum is infinite: E_P[phi] lies
    outside the hull of the features on supp Q. The margin must clear
    the rounding of E_P[phi] (a sum over n outcomes) and of the two dot
    products (k terms each).
    """
    margin = float(a @ obj.m_p) - float(np.max(a @ obj.phi_s))
    k, n = obj.phi.values.shape
    scale = float(np.abs(a) @ np.max(np.abs(obj.phi.values), axis=1))
    return margin > 8.0 * (n + k) * np.finfo(float).eps * scale


def _newton_kl_ball(obj: _ReducedObjective, radius: float, cfg: PrimalConfig):
    """Projected Newton ascent for KL on the 2-ball of ``radius``.

    Same return tuple, stopping rule, value log and finite-difference
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
    The solve stops ``unbounded`` as soon as ``a`` certifies it
    (:func:`_separates`).
    """

    def project(x):
        return project_ball(x, 2.0, radius)

    infinite = math.isinf(radius)

    def residual_at(a, grad):
        # Without a ball the projected step is the gradient itself, and
        # forming (a + grad) - a would lose it once a has grown large.
        return _norm(grad) if infinite else _norm(project(a + grad) - a)

    trust = RAY_NORM
    a = np.zeros(obj.m_p.shape[0])
    val, grad, cov, b, size = obj.kl_moments(a)
    log = [val]
    fd_worst = 0.0
    status = "not_converged"
    stagnant = 0
    it = 0
    for it in range(1, cfg.max_iters + 1):
        if residual_at(a, grad) <= cfg.tol:
            status = "converged"
            break
        if infinite:
            if _separates(obj, a):
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
            cand_out = obj.kl_moments(cand)
            if cand_out[0] >= val + 1e-4 * s * gain - slack:
                break
            s *= 0.5
        else:
            # No ascent left at float resolution.
            break
        if cand_out[0] - val <= 1e-15 * max(1.0, abs(val)):
            stagnant += 1
            if stagnant >= 30:
                # Progress is below float resolution.
                break
        else:
            stagnant = 0
        a = cand
        val, grad, cov, b, size = cand_out
        trust = 2.0 * s * _norm(d)
        if it % LOG_EVERY == 0:
            log.append(val)
            fd = obj.fd_gradient(a)
            denom = max(1.0, _norm(grad))
            fd_worst = max(fd_worst, _norm(fd - grad) / denom)
    residual = residual_at(a, grad)
    if residual <= cfg.tol:
        status = "converged"
    log.append(val)
    return a, val, b, it, residual, status, tuple(log), fd_worst


def _solve_starts(
    obj: _ReducedObjective, project, cfg: PrimalConfig, detect_ray: bool, g: FGenerator, scale: float
):
    """Run the ascent, adding seeded restarts for nonsmooth conjugates.

    A kink of f* can stall the subgradient selection at a
    non-optimal stationary-looking point, so piecewise-linear
    generators get extra seeded starts and the best value wins. Every
    start's logged values are exact evaluations, hence valid lower
    bounds; the concatenated log is reported.
    """
    notes: tuple[str, ...] = ()
    if g.conjugate_smooth:
        out = _ascend(obj, project, cfg, detect_ray)
        return out, notes
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, obj.m_p.shape[0]]))
    starts = [None] + [project(rng.normal(size=obj.m_p.shape[0]) * scale) for _ in range(3)]
    best = None
    total_iters = 0
    logs: list[float] = []
    fd_worst = 0.0
    for a0 in starts:
        out = _ascend(obj, project, cfg, detect_ray, a0)
        total_iters += out[3]
        logs.extend(out[6])
        fd_worst = max(fd_worst, out[7])
        if out[5] == "unbounded":
            best = out
            break
        if best is None or out[1] > best[1]:
            best = out
    a, val, b, _, residual, status, _, _ = best
    notes = (
        "nonsmooth conjugate: stationarity of a subgradient selection does "
        "not certify optimality; best of seeded multistart reported",
    )
    return (a, val, b, total_iters, residual, status, tuple(logs), fd_worst), notes


def restricted_div_primal(
    g: FGenerator, P: Dist, Q: Dist, spec: DiscriminatorSpec, cfg: PrimalConfig | None = None
) -> SolveReport:
    """Divergence restricted to a discriminator class, supremum side.

    The full space delegates to the separable variational solver; a
    linear ball runs the reduced ascent. An infinite-radius ball with
    feature means unreachable inside the support of Q makes the
    objective grow along a ray, reported as status ``unbounded`` with
    value +inf.
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
        )
    if not spec.intercept:
        raise ValidationError(
            "intercept-free linear classes break the intercept reduction; "
            "they exist only as a test hook"
        )
    _require_same_space(P, spec.phi)
    radius = float(spec.radius)
    obj = _ReducedObjective(g, P, Q, spec.phi)

    def project(x):
        return project_ball(x, spec.p, radius)

    if obj._is_kl and (spec.p == 2.0 or not spec.radius.is_finite):
        out, notes = _newton_kl_ball(obj, radius, cfg), ()
    else:
        scale = radius if spec.radius.is_finite else 1.0
        out, notes = _solve_starts(obj, project, cfg, not spec.radius.is_finite, g, scale)
    a, val, b, it, residual, status, log, fd_worst = out
    if status == "unbounded":
        return SolveReport(
            value=POS_INF,
            coefficients=a,
            intercept=b,
            iterations=it,
            residual=residual,
            status="unbounded",
            attained=False,
            value_log=log,
            fd_gradient_worst=fd_worst,
            notes=notes,
        )
    return SolveReport(
        value=finite(val),
        coefficients=a,
        intercept=b,
        h_opt=FunctionOnSpace(P.space, a @ spec.phi.values + b),
        iterations=it,
        residual=residual,
        status=status,
        attained=True,
        value_log=log,
        fd_gradient_worst=fd_worst,
        notes=notes,
    )


def regularized_div_primal(
    g: FGenerator, P: Dist, Q: Dist, reg: QuadraticCoefficientPenalty, cfg: PrimalConfig | None = None
) -> SolveReport:
    """Soft-regularized divergence: maximize J(a) - weight * ||a||_2^2.

    Strongly concave and unconstrained, so plain backtracking ascent
    converges from the zero start.
    """
    cfg = cfg or PrimalConfig()
    _require_same_space(P, Q)
    _require_same_space(P, reg.phi)
    obj = _ReducedObjective(g, P, Q, reg.phi, quad_weight=reg.weight)
    out, notes = _solve_starts(obj, lambda x: x, cfg, False, g, 1.0)
    a, val, b, it, residual, status, log, fd_worst = out
    return SolveReport(
        value=finite(val),
        coefficients=a,
        intercept=b,
        h_opt=FunctionOnSpace(P.space, a @ reg.phi.values + b),
        iterations=it,
        residual=residual,
        notes=notes,
        status=status,
        attained=True,
        value_log=log,
        fd_gradient_worst=fd_worst,
    )
