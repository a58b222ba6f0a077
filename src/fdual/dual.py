"""Infimum-side evaluation: intermediate distributions and moment projection.

The dual program minimizes

    G(P') = lambda*(P - P') + D(P' || Q)

over distributions P' supported inside the support of Q. The driver is
entropic mirror descent (multiplicative weights, step eta_0 / sqrt(t))
on a subgradient of G, with the Euclidean norm term smoothed by
``sqrt(||v||^2 + eps^2) - eps``. Multiplicative updates keep iterates
strictly inside the support of Q, so the divergence term never leaves
its domain.

Because any feasible P' evaluates to an upper bound on the true
infimum, the solver scores structural candidates first, in this order:
Q itself and P when dominated; the supremum side's P', the
conjugate-slope tilt ``p'_i ~ q_i f*'(a . phi_i + b)`` at its optimum,
when the caller passes it (at the saddle point this tilt is the
optimal P', so ``duality_gap`` usually certifies here and stops); the
moment-matching projection (optimal whenever the penalty pins the
optimum at the moment-matched kink, where diminishing-step
subgradient descent is provably slow); a compass search over the
conjugate-slope tilt family that contains every stationary point of
G; and a damped Newton pass in softmax coordinates for boundary
optima. Each later stage runs only while the best value is not yet
certified against the supremum side's value, and mirror descent runs
last. The reported value is the best unsmoothed evaluation seen; it
is a certified upper bound regardless of which route produced it.

``moment_projection`` solves the infinite-radius case: the closest
dominated distribution with prescribed feature means. It is the
conjugate-slope tilt of Q at the infinite-radius primal discriminator,
found by the primal's Newton solve for every generator (for total
variation, the tilt of the smoothed conjugate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminator import (
    DiscriminatorSpec,
    FullSpace,
    IndicatorOf,
    LinearBall,
    QuadraticCoefficientPenalty,
    RegularizerSpec,
    dual_exponent,
    holder_extremal,
)
from .divergence import df_closed, r_functional
from .errors import Unbounded, ValidationError
from .extreal import ExtReal, POS_INF, finite
from .fgen import FGenerator
from .primal import (
    PrimalConfig,
    SolveReport,
    project_ball,
    regularized_div_primal,
    restricted_div_primal,
)
from .space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    _require_same_space,
    _restrict_to_support,
    absolutely_continuous,
    feature_means,
)

__all__ = [
    "DualConfig",
    "GapReport",
    "restricted_div_dual",
    "moment_projection",
    "duality_gap",
]

LOG_EVERY = 50


@dataclass(frozen=True)
class DualConfig:
    max_iters: int = 60_000
    tol: float = 1e-4
    smoothing_eps: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValidationError("tol must be positive")
        if not 0.0 <= self.smoothing_eps <= 1e-3:
            raise ValidationError("smoothing_eps must lie in [0, 1e-3]")


@dataclass(frozen=True)
class GapReport:
    """Primal and dual values of the same instance, with their gap."""

    primal: SolveReport | None
    dual: SolveReport | None
    primal_value: ExtReal
    dual_value: ExtReal
    abs_gap: float
    rel_gap: float
    weak_duality_worst: float
    status: str = "ok"


class _DualObjective:
    """G restricted to the support of Q, with smoothed/unsmoothed views.

    ``qs`` and ``phi_s`` come from the same support restriction as the
    primal's (:func:`~fdual.space._restrict_to_support`): ``Q.p`` and
    ``phi.values`` themselves under full support, C-contiguous copies
    otherwise.
    """

    def __init__(self, g: FGenerator, P: Dist, Q: Dist, reg: RegularizerSpec, eps: float):
        self.g = g
        self.space = P.space
        self.eps = eps
        if isinstance(reg, QuadraticCoefficientPenalty):
            phi = reg.phi
            self.kind = "quad"
            self.weight = reg.weight
            self.radius = math.nan
            self.qexp = 2.0
        else:
            spec = reg.spec
            assert isinstance(spec, LinearBall)
            phi = spec.phi
            self.kind = "ball"
            self.weight = math.nan
            self.radius = float(spec.radius)
            self.qexp = dual_exponent(spec.p)
        self.mask, self.qs, self.phi_s = _restrict_to_support(Q, phi)
        self.target = feature_means(P, phi)

    def moment_gap(self, ps: np.ndarray) -> np.ndarray:
        return self.target - self.phi_s @ ps

    def _div_term(self, ps: np.ndarray) -> float:
        vals, fin = self.g.f_vec(ps / self.qs)
        if not np.all(fin):
            return math.inf
        return float(self.qs @ vals)

    def _penalty(self, d: np.ndarray, smoothed: bool) -> float:
        if self.kind == "quad":
            return float(d @ d) / (4.0 * self.weight)
        if self.qexp == 2.0:
            nrm = float(np.linalg.norm(d))
            if smoothed and self.eps > 0.0:
                return self.radius * (math.sqrt(nrm * nrm + self.eps**2) - self.eps)
            return self.radius * nrm
        if math.isinf(self.qexp):
            return self.radius * float(np.max(np.abs(d)))
        return self.radius * float(np.linalg.norm(d, ord=self.qexp))

    def value(self, ps: np.ndarray, smoothed: bool = False) -> float:
        return self._div_term(ps) + self._penalty(self.moment_gap(ps), smoothed)

    def subgradient(self, ps: np.ndarray) -> np.ndarray:
        d = self.moment_gap(ps)
        if self.kind == "quad":
            u = d / (2.0 * self.weight)
        elif self.qexp == 2.0:
            u = self.radius * d / math.sqrt(float(d @ d) + self.eps**2 + 1e-300)
        elif math.isinf(self.qexp):
            u = np.zeros_like(d)
            j = int(np.argmax(np.abs(d)))
            u[j] = self.radius * math.copysign(1.0, d[j])
        else:
            q = self.qexp
            nrm = float(np.linalg.norm(d, ord=q)) + 1e-300
            u = self.radius * np.sign(d) * (np.abs(d) / nrm) ** (q - 1.0)
        return self.g.f_prime_vec(np.maximum(ps, 1e-300) / self.qs) - self.phi_s.T @ u


def restricted_div_dual(
    g: FGenerator,
    P: Dist,
    Q: Dist,
    spec: DiscriminatorSpec | RegularizerSpec,
    cfg: DualConfig | None = None,
    primal_value: float | None = None,
    pprime: Dist | None = None,
) -> SolveReport:
    """Restricted/regularized divergence from the intermediate-distribution side.

    ``primal_value``, when supplied, acts as a certificate reference:
    the search stops once the best feasible evaluation is within
    ``cfg.tol`` (relative) of it. ``pprime``, when supplied, is the
    supremum side's P' (the primal report's tilt, dominated by Q); it is
    scored exactly before any other candidate, and when it certifies, no
    moment projection, pattern search or descent runs at all. Without
    it the moment-projection candidate is scored first. The returned
    ``value_log`` records the best upper bound at every logged
    iteration, and ``route`` names the stage whose candidate is
    returned: ``q``, ``p``, ``primal_tilt``, ``moment_projection``,
    ``tilt_search``, ``newton_polish``, ``mirror_descent``, or
    ``closed_form`` on the full space. At infinite radius the moment
    projection's own report is returned.
    """
    cfg = cfg or DualConfig()
    _require_same_space(P, Q)
    reg = IndicatorOf(spec) if isinstance(spec, (FullSpace, LinearBall)) else spec

    if isinstance(reg, IndicatorOf) and isinstance(reg.spec, FullSpace):
        # The gap term pins P' = P, recovering the unrestricted divergence.
        if absolutely_continuous(P, Q):
            dv = df_closed(g, P, Q)
            return SolveReport(
                value=dv.value, intermediate=P, iterations=0, residual=0.0,
                status="converged", attained=dv.value.is_finite,
                value_log=(float(dv.value),) if dv.value.is_finite else (),
                route="closed_form",
            )
        return SolveReport(value=POS_INF, iterations=0, status="infeasible", attained=False,
                           route="closed_form")

    if isinstance(reg, IndicatorOf) and isinstance(reg.spec, LinearBall):
        if not reg.spec.intercept:
            raise ValidationError("intercept-free linear classes are not dual-representable")
        if not reg.spec.radius.is_finite:
            return moment_projection(g, P, Q, reg.spec.phi)

    obj = _DualObjective(g, P, Q, reg, cfg.smoothing_eps)
    space, mask, qs = obj.space, obj.mask, obj.qs

    best_ps = qs.copy()
    best_val = obj.value(best_ps)
    stage = "q"
    if absolutely_continuous(P, Q):
        cand = P.p[mask]
        v = obj.value(cand)
        if v < best_val:
            best_val, best_ps, stage = v, cand.copy(), "p"

    def take(name: str, result) -> None:
        # Keep a stage's (value, P') if it improves the bound.
        nonlocal best_val, best_ps, stage
        if result[0] < best_val:
            (best_val, best_ps), stage = result, name

    def certified(v: float) -> bool:
        return primal_value is not None and (v - primal_value) <= cfg.tol * max(1.0, abs(v))

    is_ball = isinstance(reg, IndicatorOf) and isinstance(reg.spec, LinearBall)
    polish_phi = reg.spec.phi if is_ball else reg.phi
    if pprime is not None:
        cand = pprime.p[mask]
        take("primal_tilt", (obj.value(cand), cand))
    # At large radii the optimum sits exactly at the moment-matched kink
    # that diminishing-step subgradient descent crawls toward, so the
    # projection point is scored next, followed by a pass of
    # conjugate-slope tilt refinement for boundary optima.
    theta_mp = None
    if is_ball and not certified(best_val):
        # Scored on the unsmoothed objective: an upper bound even off the moments.
        mp = moment_projection(g, P, Q, reg.spec.phi)
        if mp.value.is_finite:
            theta_mp, ps = mp.coefficients, mp.pprime.p[mask]
            take("moment_projection", (obj.value(ps), ps.copy()))
    if not certified(best_val):
        take("tilt_search", _tilt_polish(
            g, Q, polish_phi, obj, best_val, best_ps, theta0=theta_mp, stop_when=certified
        ))
    if not certified(best_val):
        take("newton_polish", _newton_polish(obj, best_val, best_ps))

    log = [best_val]
    z = np.log(qs)
    ps = qs.copy()
    it = 0
    status = "not_converged"
    stall = 0
    if certified(best_val):
        status = "converged"
    else:
        for it in range(1, cfg.max_iters + 1):
            eta = 1.0 / math.sqrt(it)
            grad = obj.subgradient(ps)
            z = z - eta * grad
            z -= np.max(z)
            w = np.exp(z)
            ps = w / w.sum()
            v = obj.value(ps)
            if v < best_val - 1e-15:
                best_val = v
                best_ps = ps.copy()
                stage = "mirror_descent"
                stall = 0
            else:
                stall += 1
            if it % LOG_EVERY == 0:
                log.append(best_val)
            if certified(best_val):
                status = "converged"
                break
            if primal_value is None and stall > 5000 and it > 10000:
                status = "converged"
                break
        else:
            it = cfg.max_iters
        if status == "not_converged":
            take("tilt_search", _tilt_polish(
                g, Q, polish_phi, obj, best_val, best_ps, theta0=theta_mp, stop_when=certified
            ))
            take("newton_polish", _newton_polish(obj, best_val, best_ps))
            if certified(best_val):
                status = "converged"
    log.append(best_val)
    gap_est = None if primal_value is None else best_val - primal_value
    full = np.zeros(mask.shape[0])
    full[mask] = best_ps
    return SolveReport(
        value=finite(best_val),
        intermediate=Dist(space, full),
        iterations=it,
        residual=float("nan"),
        status=status,
        attained=True,
        gap_estimate=gap_est,
        value_log=tuple(log),
        route=stage,
    )


def _tilt_polish(
    g,
    Q: Dist,
    phi: FeatureMap,
    obj: "_DualObjective",
    best_val: float,
    best_ps: np.ndarray,
    theta0: np.ndarray | None = None,
    stop_when=None,
):
    """Refine the dual bound over the conjugate-slope tilt family.

    A stationary point of G is a tilt ``p'_i ~ q_i f*'(theta . phi_i + b)``
    for some coefficient vector theta in the coefficient ball (scaled
    gap for the quadratic penalty), so the dual optimum is found by
    minimizing G over this low-dimensional family. A compass (pattern)
    search over theta does that robustly, including at boundary optima
    where the moment-gap alignment is razor sensitive. Every tilt is
    scored through the exact objective, so the tracked best value is a
    certified upper bound no matter how the search terminates.
    """
    state = {"best_val": float(best_val), "best_ps": best_ps, "b_hint": None}

    def tilt_value(theta: np.ndarray) -> float:
        h_full = FunctionOnSpace(Q.space, theta @ phi.values)
        try:
            _, b = r_functional(g, Q, h_full, b_hint=state["b_hint"])
        except Unbounded:
            return math.inf
        state["b_hint"] = b
        w = obj.qs * g.fstar_prime_vec(theta @ obj.phi_s + b)
        total = float(w.sum())
        if not (total > 0.0 and np.all(np.isfinite(w))):
            return math.inf
        ps = w / total
        v = obj.value(ps)
        if v < state["best_val"]:
            state["best_val"] = v
            state["best_ps"] = ps.copy()
        return v

    if obj.kind == "ball":
        scale = obj.radius

        def clip(theta):
            p_ball = 2.0 if obj.qexp == 2.0 else dual_exponent(obj.qexp)
            return project_ball(theta, p_ball, obj.radius)

    else:
        scale = max(1.0, float(np.linalg.norm(obj.moment_gap(obj.qs))) / (2.0 * obj.weight))

        def clip(theta):
            return theta

    def coefficient(dvec: np.ndarray) -> np.ndarray | None:
        if float(np.linalg.norm(dvec)) < 1e-14:
            return None
        if obj.kind == "quad":
            return dvec / (2.0 * obj.weight)
        p_exp = 2.0 if obj.qexp == 2.0 else dual_exponent(obj.qexp)
        return holder_extremal(dvec, p_exp, obj.radius)

    starts: list[np.ndarray] = []
    if theta0 is not None and np.all(np.isfinite(np.asarray(theta0, dtype=float))):
        starts.append(clip(np.asarray(theta0, dtype=float)))
    for dvec in (obj.moment_gap(best_ps), obj.moment_gap(obj.qs)):
        c = coefficient(dvec)
        if c is not None:
            starts.append(c)

    # Compass search: the tilt objective is cheap and low dimensional,
    # and pattern steps with a shrinking radius handle the boundary
    # optima where a naive alignment fixed point oscillates.
    k = obj.phi_s.shape[0]
    for theta in starts:
        theta = theta.copy()
        val = tilt_value(theta)
        step = 0.25 * scale
        budget = 900
        while step > 1e-10 * scale and budget > 0:
            if stop_when is not None and stop_when(state["best_val"]):
                return state["best_val"], state["best_ps"]
            improved = False
            for j in range(k):
                for sgn in (1.0, -1.0):
                    cand = theta.copy()
                    cand[j] += sgn * step
                    cand = clip(cand)
                    v = tilt_value(cand)
                    budget -= 1
                    if v < val - 1e-16:
                        theta, val = cand, v
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                step *= 0.5
    return state["best_val"], state["best_ps"]


def _newton_polish(obj: "_DualObjective", best_val: float, best_ps: np.ndarray, rounds: int = 40):
    """Damped Newton refinement of G in softmax coordinates.

    Away from the moment-matched kink G is smooth, and on a desk-scale
    support the Hessian (finite differences of the analytic gradient in
    the softmax parameterization) is tiny, so a few damped Newton steps
    reach the boundary-case optima that both the projection candidate
    and diminishing-step descent miss. Iterates stay inside the simplex
    by construction and only ever improve the tracked best value.
    """
    m = best_ps.shape[0]
    if m == 1:
        return best_val, best_ps
    z = np.log(np.maximum(best_ps, 1e-300))

    def softmax(zv):
        w = np.exp(zv - np.max(zv))
        return w / w.sum()

    def grad_z(zv):
        p = softmax(zv)
        gp = obj.subgradient(p)
        return p * gp - p * float(p @ gp), p

    val = float(best_val)
    for _ in range(rounds):
        gz, p = grad_z(z)
        gnorm = float(np.linalg.norm(gz))
        if gnorm <= 1e-13:
            break
        h = 1e-6 * max(1.0, float(np.max(np.abs(z))) if np.all(np.isfinite(z)) else 1.0)
        H = np.empty((m, m))
        for j in range(m):
            zj = z.copy()
            zj[j] += h
            gj, _ = grad_z(zj)
            H[:, j] = (gj - gz) / h
        H = 0.5 * (H + H.T) + 1e-10 * np.eye(m)
        try:
            step = np.linalg.solve(H, -gz)
        except np.linalg.LinAlgError:
            step = -gz
        if float(gz @ step) > 0.0:
            step = -gz  # Hessian model not a descent model; fall back
        t = 1.0
        improved = False
        while t > 1e-12:
            z_c = z + t * step
            p_c = softmax(z_c)
            v_c = obj.value(p_c)
            if v_c < val - 1e-16:
                z, val = z_c, v_c
                if v_c < best_val:
                    best_val = v_c
                    best_ps = p_c.copy()
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return best_val, best_ps


def moment_projection(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap) -> SolveReport:
    """Closest dominated distribution with the feature means of P.

    Minimizes D(P'||Q) over P' << Q subject to E_P'[phi] = E_P[phi].
    It is the conjugate-slope tilt p'_i ~ q_i f*'(a . phi_i + b*) of Q
    at the optimal infinite-radius linear discriminator (for total
    variation, of its smoothed conjugate), and the value is D(P'||Q)
    there. A supremum growing along a ray means the target is
    unreachable: status ``infeasible``, value +inf, and the unit ray
    direction as certificate. On a face of the achievable hull
    ``attained`` is false. ``converged`` needs a moment residual of at
    most 1e-8.
    """
    _require_same_space(P, Q)
    _require_same_space(P, phi)
    pr = restricted_div_primal(g, P, Q, LinearBall(phi, 2, POS_INF), PrimalConfig(tol=1e-10))
    a = pr.coefficients
    if pr.status == "unbounded":
        return SolveReport(
            value=POS_INF, coefficients=a / float(np.linalg.norm(a)), iterations=pr.iterations,
            residual=pr.residual, status="infeasible", attained=False,
            notes=("target means unreachable at finite divergence",), route="newton",
        )
    residual = float(np.linalg.norm(feature_means(pr.pprime, phi) - feature_means(P, phi)))
    value = float(df_closed(g, pr.pprime, Q).value)
    return SolveReport(
        value=finite(value),
        coefficients=a,
        intermediate=pr.pprime,
        iterations=pr.iterations,
        residual=residual,
        status=pr.status if residual <= 1e-8 else "not_converged",
        attained=pr.attained,
        value_log=(value,),
        notes=pr.notes,
        route="newton",
    )


def duality_gap(
    g: FGenerator,
    P: Dist,
    Q: Dist,
    spec: DiscriminatorSpec | RegularizerSpec,
    primal_cfg: PrimalConfig | None = None,
    dual_cfg: DualConfig | None = None,
) -> GapReport:
    """Run both solvers on one instance and report the certified gap.

    The supremum side approaches the optimum from below and the
    infimum side from above, so every logged primal value must stay
    below every logged dual value; the worst pairwise violation is
    reported alongside the final gap.
    """
    p_spec = spec.spec if isinstance(spec, IndicatorOf) else spec
    if isinstance(p_spec, LinearBall) and not p_spec.intercept:
        return GapReport(
            primal=None, dual=None, primal_value=finite(0.0), dual_value=finite(0.0),
            abs_gap=math.nan, rel_gap=math.nan, weak_duality_worst=math.nan,
            status="not_applicable",
        )
    if isinstance(p_spec, QuadraticCoefficientPenalty):
        p_rep = regularized_div_primal(g, P, Q, p_spec, primal_cfg)
    else:
        p_rep = restricted_div_primal(g, P, Q, p_spec, primal_cfg)
    ref = float(p_rep.value) if p_rep.value.is_finite else None
    d_rep = restricted_div_dual(g, P, Q, spec, dual_cfg, primal_value=ref,
                                pprime=p_rep.pprime if ref is not None else None)

    pv, dv = p_rep.value, d_rep.value
    if pv.is_finite and dv.is_finite:
        abs_gap = abs(float(pv) - float(dv))
        rel_gap = abs_gap / max(1.0, abs(float(dv)))
    elif (not pv.is_finite) and (not dv.is_finite):
        abs_gap = 0.0
        rel_gap = 0.0
    else:
        abs_gap = math.inf
        rel_gap = math.inf
    worst = -math.inf
    if p_rep.value_log and d_rep.value_log:
        worst = max(p_rep.value_log) - min(d_rep.value_log)
    return GapReport(
        primal=p_rep,
        dual=d_rep,
        primal_value=pv,
        dual_value=dv,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        weak_duality_worst=worst,
        status="ok",
    )
