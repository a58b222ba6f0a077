"""Divergence evaluation: closed form, variational form, R-functional.

On a finite space the variational objective
``sup_h E_P[h] - E_Q[f*(h)]`` separates across outcomes, so the
supremum is a sum of independent one-dimensional concave problems,
solved here by bracketed Newton steps on their first-order condition,
seeded at ``f'(p_i / q_i)``. The closed form
``sum_{q_i > 0} q_i f(p_i / q_i) + f'(inf) * (P-mass outside supp Q)``
is evaluated directly; the two agree whenever both are finite, a fact
the test suite leans on as its master oracle.

The R-functional ``R(h) = inf_b E_Q[f*(h + b)] - b`` optimizes the
free intercept out of the conjugate term. It is the workhorse of the
primal reduction: a linear discriminator class contributes
``a . E_P[phi] - R(a . phi)`` once the intercept is absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Unbounded
from .extreal import ExtReal, POS_INF, finite, scale_mass
from .fgen import FGenerator, conjugate_sup
from .optim1d import bisect_sign_change
from .space import Dist, FunctionOnSpace, _require_same_space

__all__ = [
    "DivergenceValue",
    "T_CAP",
    "df_closed",
    "df_variational_full",
    "kl_bar",
    "r_functional",
    "r_functional_numeric",
    "log_expectation_exp",
]

T_CAP = 1e3
B_BOX = 1e3


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence value with the attaining discriminator when known.

    ``capped`` marks coordinates of ``attained_h`` that were truncated
    at +-T_CAP because the supremum is only approached in the limit.
    """

    value: ExtReal
    attained_h: FunctionOnSpace | None = None
    capped: bool = False


def df_closed(g: FGenerator, P: Dist, Q: Dist) -> DivergenceValue:
    """Closed-form divergence of P from Q.

    Sums ``q_i f(p_i / q_i)`` over the support of Q (with the
    ``0 * f(0/0) = 0`` convention) and charges P-mass escaping the
    support of Q at the slope of ``f`` at infinity.
    """
    _require_same_space(P, Q)
    p, q = P.p, Q.p
    mask = q > 0.0
    ratios = p[mask] / q[mask]
    vals, fin = g.f_vec(ratios)
    if not np.all(fin):
        return DivergenceValue(POS_INF)
    total = finite(float(q[mask] @ vals))
    escape = float(p[~mask].sum())
    if escape > 0.0:
        total = total + scale_mass(escape, g.fprime_at_infinity)
    return DivergenceValue(total)


def df_variational_full(
    g: FGenerator, P: Dist, Q: Dist, t_cap: float = T_CAP, tol: float = 1e-12
) -> DivergenceValue:
    """Divergence as a supremum over all functions on the space.

    Each outcome contributes ``sup_t (p_i t - q_i f*(t))``, maximized
    per coordinate over [-t_cap, t_cap] by :func:`fgen.conjugate_sup`,
    a box widened to reach the maximizer f'(p_i / q_i) where p_i, q_i > 0:
    ``tol`` bounds the last Newton step in t, or the final bisection
    bracket where f* has kinks, and the value is evaluated exactly at
    the t returned. Coordinates where the supremum is approached at
    infinity report a truncated maximizer (+-t_cap, ``capped`` set);
    coordinates where it diverges make the value +infinity. Agrees with
    :func:`df_closed` whenever both are finite.
    """
    _require_same_space(P, Q)
    p, q = P.p, Q.p
    n = P.space.n
    h = np.zeros(n)
    capped = False
    total = finite(0.0)

    esc = (q == 0.0) & (p > 0.0)
    if np.any(esc):
        # Nothing penalizes these coordinates, so p_i * t grows freely.
        h[esc] = t_cap
        capped = True
        total = POS_INF

    zero_p = (q > 0.0) & (p == 0.0)
    if np.any(zero_p):
        # sup_t (-q_i f*(t)) = q_i f(0), approached as t -> -inf.
        h[zero_p] = -t_cap
        capped = True
        for qi in q[zero_p]:
            total = total + scale_mass(float(qi), g.f_at_zero)

    inner = (q > 0.0) & (p > 0.0)
    if np.any(inner):
        t_best, v_best = conjugate_sup(g, p[inner], q[inner], t_cap, tol)
        h[inner] = t_best
        total = total + finite(float(np.sum(v_best)))

    attained = FunctionOnSpace(P.space, h)
    return DivergenceValue(total, attained_h=attained, capped=capped)


def kl_bar(P: Dist, Q: Dist) -> DivergenceValue:
    """Extended KL divergence (closed form with escape-mass charge)."""
    from .fgen import builtin

    return df_closed(builtin("kl"), P, Q)


def log_expectation_exp(Q: Dist, h_values: np.ndarray) -> float:
    """ln E_Q[e^h], evaluated stably over the support of Q."""
    q = Q.p
    mask = q > 0.0
    hs = h_values[mask]
    qs = q[mask]
    m = float(np.max(hs))
    return m + math.log(float(qs @ np.exp(hs - m)))


def r_functional(
    g: FGenerator,
    Q: Dist,
    h: FunctionOnSpace,
    tol_b: float = 1e-10,
) -> tuple[float, float]:
    """Intercept-optimized conjugate term ``inf_b E_Q[f*(h+b)] - b``.

    Returns ``(value, b_star)`` with the infimum attained at ``b_star``.
    For the KL generator the closed form ``ln E_Q[e^h]`` is returned
    (with ``b_star = 1 - ln E_Q[e^h]``); other generators are solved by
    sign bisection on the derivative of the convex inner problem.

    Raises :class:`Unbounded` if no sign change is bracketed inside
    ``|b| <= 1e3``.
    """
    _require_same_space(Q, h)
    if g.name == "kl":
        lse = log_expectation_exp(Q, h.values)
        return lse, 1.0 - lse
    return r_functional_numeric(g, Q, h, tol_b=tol_b)


def r_functional_numeric(
    g: FGenerator,
    Q: Dist,
    h: FunctionOnSpace,
    tol_b: float = 1e-10,
) -> tuple[float, float]:
    """Numeric inner solve behind :func:`r_functional`.

    Exposed separately so the KL closed form can be cross-checked
    against the generic path.
    """
    _require_same_space(Q, h)
    q = Q.p
    mask = q > 0.0
    qs = q[mask]
    hs = h.values[mask]

    def psi(b: float) -> float:
        vals, fin = g.fstar_vec(hs + b)
        if not np.all(fin):
            return math.inf
        return float(qs @ vals) - b

    def dpsi(b: float) -> float:
        return float(qs @ g.fstar_prime_vec(hs + b)) - 1.0

    up = g.fstar_domain_upper
    h_max = float(np.max(hs))
    if up.is_finite:
        b_edge = up.value - h_max
        if h_max + b_edge > up.value:
            # Rounding put max h + b past the domain's end, where f* is +inf.
            b_edge = math.nextafter(b_edge, -math.inf)
        if g.fstar_domain_closed:
            d_hi = dpsi(b_edge)
            if d_hi <= 0.0:
                # Derivative never crosses zero inside the domain; the
                # boundary itself minimizes.
                return psi(b_edge), b_edge
            hi = b_edge
        else:
            hi = None
            gap = 1.0
            for _ in range(80):
                cand = b_edge - gap
                d_hi = dpsi(cand)
                if d_hi >= 0.0:
                    hi = cand
                    break
                gap *= 0.5
            if hi is None:
                # f*' blows up at an open boundary, so this is unreachable
                # for catalog generators; kept as a defensive failure.
                raise Unbounded("no upper bracket below the conjugate domain edge")
    else:
        hi = None
        b = 1.0
        while True:
            d_hi = dpsi(b)
            if d_hi >= 0.0:
                hi = b
                break
            if b >= B_BOX:
                raise Unbounded(f"derivative still negative at b = {B_BOX}")
            b = min(b * 2.0, B_BOX)

    lo = None
    b = min(-1.0, hi - 1.0)
    while True:
        d_lo = dpsi(b)
        if d_lo <= 0.0:
            lo = b
            break
        if b <= -B_BOX:
            raise Unbounded(f"derivative still positive at b = {-B_BOX}")
        b = max(b * 2.0, -B_BOX)

    b_star = bisect_sign_change(dpsi, lo, hi, tol=tol_b, d_lo=d_lo, d_hi=d_hi)
    value = psi(b_star)
    if up.is_finite and g.fstar_domain_closed:
        # A closed boundary can undercut the interior bisection point.
        v_edge = psi(up.value - h_max)
        if v_edge < value:
            return v_edge, up.value - h_max
    return value, b_star
