"""Infimum-side evaluation: intermediate distributions, moment projection included.

The dual program minimizes

    G(P') = lambda*(P - P') + D(P' || Q)

over distributions P' supported inside the support of Q. At the saddle
point the optimal P' is the conjugate-slope tilt
``p'_i ~ q_i f*'(a . phi_i + b)`` of Q at the best discriminator, which
every supremum-side solve reports as its ``pprime``. So
``restricted_div_dual`` does not search: it scores the primal's tilt
exactly and certifies it against the primal's value, on every ball and
under a quadratic penalty. Any feasible P' evaluates to an upper bound
on the true infimum, so the reported value is one whatever its status.
At infinite radius the dual is the moment projection, the closest
dominated distribution with prescribed feature means.
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
from .extreal import ExtReal, POS_INF
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
    """Primal and dual values of the same instance, with their gap. The
    values are floats that also read ``is_finite`` (:class:`~fdual.extreal.ExtReal`).
    ``status`` always reads ``ok``; it stays for callers that read it."""

    primal: SolveReport
    dual: SolveReport
    primal_value: float
    dual_value: float
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

    On the full space the gap term pins P' = P (route ``closed_form``).
    Otherwise P' is the tilt ``pprime`` of ``primal``, the supremum side's
    report of the same instance, which is solved here when not given
    (default :class:`PrimalConfig`, tol 1e-10 at infinite radius); route
    ``primal_tilt``. P' is scored exactly as D(P' || Q) plus
    :func:`~fdual.discriminator.gap_conjugate` at E_P[phi] - E_P'[phi].
    At infinite radius, where P' must meet the means of P, it is D(P' || Q)
    alone, the norm of that moment gap is the ``residual``, and the
    report carries the primal's coefficients and iterations. ``attained``
    and the notes are the primal's. The status is ``converged`` when the
    value is within ``cfg.tol`` (relative) of the primal value and any
    moment residual is at most 1e-8, ``not_converged`` otherwise, with
    ``gap_estimate`` the dual value less the primal value; the value is
    an exact upper bound either way. An ``unbounded`` primal makes the
    dual ``infeasible``, +inf, with the unit ray as coefficients.
    """
    cfg = cfg or DualConfig()
    _require_same_space(P, Q)
    if isinstance(spec, FullSpace):
        # The gap term pins P' = P, recovering the unrestricted divergence.
        if absolutely_continuous(P, Q):
            dv = df_closed(g, P, Q)
            return SolveReport(
                value=dv.value, intermediate=P, iterations=0, residual=0.0,
                status="converged", attained=math.isfinite(dv.value),
                value_log=(dv.value,) if math.isfinite(dv.value) else (),
                route="closed_form",
            )
        return SolveReport(value=POS_INF, iterations=0, status="infeasible", attained=False,
                           route="closed_form")

    infinite = isinstance(spec, LinearBall) and math.isinf(spec.radius)
    if primal is None:
        primal = _primal_solve(g, P, Q, spec, PrimalConfig(tol=1e-10) if infinite else None)
    if primal.status == "unbounded":
        a = primal.coefficients
        return SolveReport(
            value=POS_INF, coefficients=a / float(np.linalg.norm(a)), iterations=primal.iterations,
            residual=primal.residual, status="infeasible", attained=False,
            notes=("target means unreachable at finite divergence",), route="primal_tilt",
        )
    pp = primal.pprime
    shift = feature_means(P, spec.phi) - feature_means(pp, spec.phi)
    value = df_closed(g, pp, Q).value
    if infinite:
        # The moment projection: P' must meet the means of P.
        residual = float(np.linalg.norm(shift))
        solve = dict(coefficients=primal.coefficients, iterations=primal.iterations, residual=residual)
    else:
        value += gap_conjugate(spec, shift)
        residual = 0.0
        solve = {}
    gap_est = value - primal.value
    certified = gap_est <= cfg.tol * max(1.0, abs(value)) and residual <= 1e-8
    return SolveReport(
        value=value,
        intermediate=pp,
        status="converged" if certified else "not_converged",
        attained=primal.attained,
        gap_estimate=gap_est,
        value_log=(value,),
        notes=primal.notes,
        route="primal_tilt",
        **solve,
    )


def moment_projection(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap) -> SolveReport:
    """Closest dominated distribution with the feature means of P.

    Minimizes D(P'||Q) over P' << Q subject to E_P'[phi] = E_P[phi]:
    :func:`restricted_div_dual` on ``LinearBall(phi, 2, inf)``. P' is the
    conjugate-slope tilt p'_i ~ q_i f*'(a . phi_i + b*) of Q at the
    optimal infinite-radius discriminator (for total variation, of its
    smoothed conjugate). A supremum growing along a ray means the target
    is unreachable: status ``infeasible``, value +inf, and the unit ray
    direction as certificate. On a face of the achievable hull
    ``attained`` is false.
    """
    return restricted_div_dual(g, P, Q, LinearBall(phi, 2, POS_INF))


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

    pv, dv = ExtReal(p_rep.value), ExtReal(d_rep.value)
    if pv.is_finite and dv.is_finite:
        abs_gap = abs(pv - dv)
        rel_gap = abs_gap / max(1.0, abs(dv))
    elif not (pv.is_finite or dv.is_finite):
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
