"""Infimum-side evaluation: intermediate distributions and moment projection.

The dual program minimizes

    G(P') = lambda*(P - P') + D(P' || Q)

over distributions P' supported inside the support of Q. At the saddle
point the optimal P' is the conjugate-slope tilt
``p'_i ~ q_i f*'(a . phi_i + b)`` of Q at the best discriminator, which
every supremum-side solve reports as its ``pprime``. So
``restricted_div_dual`` does not search: it scores Q, P (when dominated
by Q) and the primal's tilt exactly, and certifies the best of them
against the primal's value. Any feasible P' evaluates to an upper bound
on the true infimum, so the reported value is one whatever its status.

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
    LinearBall,
    QuadraticCoefficientPenalty,
    gap_conjugate,
)
from .divergence import df_closed
from .errors import ValidationError
from .extreal import ExtReal, POS_INF, finite
from .fgen import FGenerator
from .primal import (
    PrimalConfig,
    SolveReport,
    regularized_div_primal,
    restricted_div_primal,
)
from .space import (
    Dist,
    FeatureMap,
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


@dataclass(frozen=True)
class DualConfig:
    """Relative tolerance within which the dual value certifies the primal's."""

    tol: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")


@dataclass(frozen=True)
class GapReport:
    """Primal and dual values of the same instance, with their gap.
    ``status`` always reads ``ok``; it stays for callers that read it."""

    primal: SolveReport
    dual: SolveReport
    primal_value: ExtReal
    dual_value: ExtReal
    abs_gap: float
    rel_gap: float
    weak_duality_worst: float
    status: str = "ok"


def _primal_solve(g, P, Q, spec, cfg: PrimalConfig | None) -> SolveReport:
    """The supremum side of a class or a quadratic penalty."""
    if isinstance(spec, QuadraticCoefficientPenalty):
        return regularized_div_primal(g, P, Q, spec, cfg)
    return restricted_div_primal(g, P, Q, spec, cfg)


def restricted_div_dual(
    g: FGenerator,
    P: Dist,
    Q: Dist,
    spec: DiscriminatorSpec | QuadraticCoefficientPenalty,
    cfg: DualConfig | None = None,
    primal: SolveReport | None = None,
) -> SolveReport:
    """Restricted/regularized divergence from the intermediate-distribution side.

    On the full space the gap term pins P' = P (route ``closed_form``);
    at infinite radius the moment projection's own report is returned.
    On a finite ball or under a quadratic penalty, ``primal`` is the
    supremum side's report of the same instance; without it the primal
    is solved here with the default :class:`PrimalConfig`. Three
    candidates are scored exactly by G on supp Q, as
    ``sum q_i f(p'_i / q_i)`` plus :func:`~fdual.discriminator.gap_conjugate`
    at E_P[phi] - E_P'[phi], and a later one replaces the
    best only if it is strictly lower: Q (route ``q``), P when dominated
    by Q (``p``), and the primal's tilt ``pprime`` (``primal_tilt``).
    The status is ``converged`` when the best value is within
    ``cfg.tol`` (relative) of the primal value, ``not_converged``
    otherwise, with ``gap_estimate`` the dual value less the primal
    value. No further search is made; the value is an exact upper bound
    either way.
    """
    cfg = cfg or DualConfig()
    _require_same_space(P, Q)
    if isinstance(spec, FullSpace):
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

    if isinstance(spec, LinearBall) and not spec.radius.is_finite:
        return moment_projection(g, P, Q, spec.phi)

    if primal is None:
        primal = _primal_solve(g, P, Q, spec, None)
    mask, qs, phi_s = _restrict_to_support(Q, spec.phi)
    target = feature_means(P, spec.phi)

    def score(ps: np.ndarray) -> float:
        """G at the masses ``ps`` on supp Q."""
        vals, fin = g.f_vec(ps / qs)
        if not np.all(fin):
            return math.inf
        return float(qs @ vals) + gap_conjugate(spec, target - phi_s @ ps)

    candidates = [("p", P)] if absolutely_continuous(P, Q) else []
    if primal.pprime is not None:
        candidates.append(("primal_tilt", primal.pprime))
    best_ps, route = qs, "q"
    best_val = score(best_ps)
    for name, cand in candidates:
        v = score(cand.p[mask])
        if v < best_val:
            best_val, best_ps, route = v, cand.p[mask], name

    gap_est = best_val - float(primal.value) if primal.value.is_finite else None
    certified = gap_est is not None and gap_est <= cfg.tol * max(1.0, abs(best_val))
    full = np.zeros(mask.shape[0])
    full[mask] = best_ps
    return SolveReport(
        value=finite(best_val),
        intermediate=Dist(P.space, full),
        iterations=0,
        residual=float("nan"),
        status="converged" if certified else "not_converged",
        attained=True,
        gap_estimate=gap_est,
        # The bound as scored and as returned, in the two-entry layout of a search's log.
        value_log=(best_val, best_val),
        route=route,
    )


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
    spec: DiscriminatorSpec | QuadraticCoefficientPenalty,
    primal_cfg: PrimalConfig | None = None,
    dual_cfg: DualConfig | None = None,
) -> GapReport:
    """Run both solvers on one instance and report the certified gap.

    The dual scores the primal report's tilt (see
    :func:`restricted_div_dual`). The supremum side approaches the optimum from below and the
    infimum side from above, so every logged primal value must stay
    below every logged dual value; the worst pairwise violation is
    reported alongside the final gap.
    """
    p_rep = _primal_solve(g, P, Q, spec, primal_cfg)
    d_rep = restricted_div_dual(g, P, Q, spec, dual_cfg, primal=p_rep)

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
    )
