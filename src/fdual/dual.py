"""Infimum-side evaluation: intermediate distributions, moment projection included.

The dual program minimizes

    G(P') = lambda*(P - P') + D(P' || Q)

over distributions P' supported inside the support of Q. At the saddle
point the optimal P' is the conjugate-slope tilt
``p'_i ~ q_i f*'(a . phi_i + b)`` of Q at the best discriminator, which
every supremum-side solve reports as its ``pprime``. So
``restricted_div_dual`` does not search: it scores exactly the tilt of
:func:`~fdual.primal.restricted_div_primal`, the one supremum-side
entry for every spec, and certifies it against the primal's value, on
every ball and under a quadratic penalty. At infinite radius
the dual is the moment projection, the closest dominated distribution
with prescribed feature means, and it moves the tilt onto those means
before scoring it. So the dual value is an upper bound, and the signed
gap certifies both values to within ``GAP_TOL`` relative.
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
from .extreal import ExtReal, POS_INF
from .fgen import FGenerator
from .primal import PrimalConfig, SolveReport, restricted_div_primal, rounding_bound
from .space import (
    Dist,
    FeatureMap,
    _require_same_space,
    absolutely_continuous,
    feature_means,
)

__all__ = [
    "GAP_TOL",
    "GapReport",
    "restricted_div_dual",
    "moment_projection",
    "duality_gap",
]


# Relative gap, over max(1, |dual value|), within which the dual value certifies the primal's.
GAP_TOL = 1e-4


@dataclass(frozen=True)
class GapReport:
    """Primal and dual values of the same instance, with their gap. The
    values are floats that also read ``is_finite`` (:class:`~fdual.extreal.ExtReal`).
    ``gap``, the dual value less the primal value, is signed (0 when both
    are +inf), and so is ``rel_gap``, ``gap`` over max(1, |dual value|).
    The dual's status says whether the gap lies between minus rounding
    and ``GAP_TOL``. ``status`` always reads ``ok``; it stays for callers
    that read it."""

    primal: SolveReport
    dual: SolveReport
    primal_value: float
    dual_value: float
    gap: float
    rel_gap: float
    status: str = "ok"


def restricted_div_dual(
    g: FGenerator,
    P: Dist,
    Q: Dist,
    spec: DiscriminatorSpec | QuadraticCoefficientPenalty,
    primal: SolveReport | None = None,
) -> SolveReport:
    """Restricted/regularized divergence from the intermediate-distribution side.

    On the full space the gap term pins P' = P (route ``closed_form``).
    Otherwise P' is the tilt ``pprime`` of ``primal``, the report of
    :func:`~fdual.primal.restricted_div_primal` on the same instance,
    which is solved here when not given (default :class:`PrimalConfig`,
    tol 1e-10 at infinite radius); route ``primal_tilt``. At finite
    radius P' is scored exactly as D(P' || Q) plus
    :func:`~fdual.discriminator.gap_conjugate` at E_P[phi] - E_P'[phi].
    At infinite radius, where P' meets the means of P only to the primal's
    tolerance, the dual scores D(P'' || Q) alone, at P'' = P' (1 + (phi -
    mu')^T lam) with mu' = E_P'[phi] and Cov_P'(phi) lam = E_P[phi] - mu'.
    P'' keeps the support of P' and meets the means to rounding; the norm
    of its moment gap is the ``residual``, and the report carries the
    primal's coefficients and iterations. So the value is an exact upper
    bound either way, with two exceptions: P'' would have a negative
    mass, or its masses miss a sum of 1 by more than
    :func:`~fdual.primal.rounding_bound` at scale 1. The second happens
    where P' has nearly collapsed: Cov_P'(phi) is then near singular and
    lam huge. In both cases the dual keeps P' and reads
    ``not_converged``. ``attained`` and the notes are the primal's.
    ``gap_estimate`` is the dual value less the primal value; the status
    is ``converged`` when it lies in [-8 (n + k) eps, ``GAP_TOL``] times
    max(1, |value|), the lower end a rounding bound. An ``unbounded``
    primal makes the dual ``infeasible``, +inf, with the unit ray as
    coefficients.
    """
    _require_same_space(P, Q)
    if isinstance(spec, FullSpace):
        # The gap term pins P' = P, recovering the unrestricted divergence.
        if absolutely_continuous(P, Q):
            dv = df_closed(g, P, Q)
            return SolveReport(
                value=dv.value, intermediate=P, iterations=0, residual=0.0,
                status="converged", attained=math.isfinite(dv.value), route="closed_form",
            )
        return SolveReport(value=POS_INF, iterations=0, status="infeasible", attained=False,
                           route="closed_form")

    infinite = isinstance(spec, LinearBall) and math.isinf(spec.radius)
    if primal is None:
        primal = restricted_div_primal(g, P, Q, spec, PrimalConfig(tol=1e-10) if infinite else None)
    if primal.status == "unbounded":
        a = primal.coefficients
        return SolveReport(
            value=POS_INF, coefficients=a / float(np.linalg.norm(a)), iterations=primal.iterations,
            residual=primal.residual, status="infeasible", attained=False,
            notes=("target means unreachable at finite divergence",), route="primal_tilt",
        )
    pp = primal.pprime
    target, mu = feature_means(P, spec.phi), feature_means(pp, spec.phi)
    kept = False
    if infinite:
        # Off the means, D(P' || Q) need not bound the infimum: score P''. The
        # least-squares solve covers features affinely dependent on supp P'.
        centered = spec.phi.values - mu[:, None]
        weighted = centered * pp.p
        w = pp.p + np.linalg.lstsq(weighted @ centered.T, target - mu, rcond=None)[0] @ weighted
        kept = bool(np.any(w < 0.0)) or abs(float(w.sum()) - 1.0) > rounding_bound(spec.phi.values, 1.0)
        if not kept:
            pp = Dist(pp.space, w)
            mu = feature_means(pp, spec.phi)
        value = df_closed(g, pp, Q).value
        solve = dict(coefficients=primal.coefficients, iterations=primal.iterations,
                     residual=float(np.linalg.norm(target - mu)))
    else:
        value = df_closed(g, pp, Q).value + gap_conjugate(spec, target - mu)
        solve = {}
    gap_est = value - primal.value
    scale = max(1.0, abs(value))
    certified = not kept and -rounding_bound(spec.phi.values, scale) <= gap_est <= GAP_TOL * scale
    return SolveReport(
        value=value,
        intermediate=pp,
        status="converged" if certified else "not_converged",
        attained=primal.attained,
        gap_estimate=gap_est,
        notes=primal.notes,
        route="primal_tilt",
        **solve,
    )


def moment_projection(g: FGenerator, P: Dist, Q: Dist, phi: FeatureMap) -> SolveReport:
    """Closest dominated distribution with the feature means of P.

    Minimizes D(P'||Q) over P' << Q subject to E_P'[phi] = E_P[phi]:
    :func:`restricted_div_dual` on ``LinearBall(phi, 2, inf)``. ``pprime``
    is P'': the conjugate-slope tilt p'_i ~ q_i f*'(a . phi_i + b*) of Q at
    the optimal infinite-radius discriminator (for total variation, of its
    smoothed conjugate), moved onto the means of P. So it is not a tilt of
    Q, and its value bounds the projection from above. A supremum growing
    along a ray means the target is unreachable: status ``infeasible``,
    value +inf, and the unit ray direction as certificate. On a face of
    the achievable hull ``attained`` is false.
    """
    return restricted_div_dual(g, P, Q, LinearBall(phi, 2, POS_INF))


def duality_gap(
    g: FGenerator,
    P: Dist,
    Q: Dist,
    spec: DiscriminatorSpec | QuadraticCoefficientPenalty,
    primal_cfg: PrimalConfig | None = None,
) -> GapReport:
    """Run both sides on one instance and report the signed gap.

    :func:`~fdual.primal.restricted_div_primal` solves the supremum side
    under ``primal_cfg``, and the dual scores its tilt (see
    :func:`restricted_div_dual`). The supremum side bounds the value from
    below and the infimum side from above, so the gap, dual less primal,
    is at least minus rounding, and the dual's status certifies it to
    ``GAP_TOL``.
    """
    p_rep = restricted_div_primal(g, P, Q, spec, primal_cfg)
    d_rep = restricted_div_dual(g, P, Q, spec, primal=p_rep)
    pv, dv = ExtReal(p_rep.value), ExtReal(d_rep.value)
    gap = dv - pv if pv.is_finite or dv.is_finite else 0.0
    rel_gap = gap / max(1.0, abs(dv)) if dv.is_finite else gap
    return GapReport(primal=p_rep, dual=d_rep, primal_value=pv, dual_value=dv, gap=gap, rel_gap=rel_gap)
