"""Divergence evaluation: closed form, variational form, R-functional.

On a finite space the variational objective
``sup_h E_P[h] - E_Q[f*(h)]`` separates across outcomes, so the
supremum is a sum of independent one-dimensional concave problems,
solved here by bracketed Newton steps on their first-order condition,
seeded at ``f'(p_i / q_i)``, which is the exact maximizer where f* has
kinks. The closed form
``sum_{q_i > 0} q_i f(p_i / q_i) + f'(inf) * (P-mass outside supp Q)``
is evaluated directly; the two agree whenever both are finite, a fact
the test suite leans on as its master oracle.

The R-functional ``R(h) = inf_b E_Q[f*(h + b)] - b`` optimizes the
free intercept out of the conjugate term. It is the workhorse of the
primal reduction: a linear discriminator class contributes
``a . E_P[phi] - R(a . phi)`` once the intercept is absorbed. KL and
total variation have closed forms; for every other generator the
optimal intercept is the root of E_Q[f*'(h + b)] = 1, found by
:func:`intercept_root` with safeguarded Newton steps. The supremum
side of :mod:`fdual.primal` calls the same root with a warm start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .extreal import finite
from .fgen import FGenerator, conjugate_sup
from .space import Dist, FunctionOnSpace, _require_same_space

__all__ = [
    "DivergenceValue",
    "T_CAP",
    "df_closed",
    "df_variational_full",
    "intercept_ends",
    "intercept_root",
    "kl_bar",
    "r_functional",
    "r_functional_numeric",
    "log_expectation_exp",
]

T_CAP = 1e3


@dataclass(frozen=True)
class DivergenceValue:
    """A divergence value with the attaining discriminator when known.

    ``capped`` marks coordinates of ``attained_h`` that were truncated
    at +-T_CAP because the supremum is only approached in the limit.
    ``value`` is a float, +inf for a divergent supremum.
    """

    value: float
    attained_h: FunctionOnSpace | None = None
    capped: bool = False


def _charge(mass: float, x: float) -> float:
    """mass * x with 0 * inf = 0: outcomes without mass add nothing, even where x is infinite."""
    return mass * x if mass > 0.0 else 0.0


def df_closed(g: FGenerator, P: Dist, Q: Dist) -> DivergenceValue:
    """Closed-form divergence of P from Q.

    Sums ``q_i f(p_i / q_i)`` over the support of Q (with the
    ``0 * f(0/0) = 0`` convention) and charges P-mass escaping the
    support of Q at the slope of ``f`` at infinity.
    """
    _require_same_space(P, Q)
    p, q = P.p, Q.p
    mask = q > 0.0
    total = float(q[mask] @ g.f_vec(p[mask] / q[mask]))
    return DivergenceValue(total + _charge(float(p[~mask].sum()), g.fprime_at_infinity))


def df_variational_full(g: FGenerator, P: Dist, Q: Dist) -> DivergenceValue:
    """Divergence as a supremum over all functions on the space.

    Each outcome contributes ``sup_t (p_i t - q_i f*(t))``, maximized
    per coordinate over [-T_CAP, T_CAP] by :func:`fgen.conjugate_sup`,
    a box widened to reach the maximizer f'(p_i / q_i) where p_i, q_i > 0:
    1e-12 bounds the last Newton step in t (where f* has kinks the
    seed itself is the maximizer), and the value is evaluated exactly at
    the t returned. Coordinates where the supremum is approached at
    infinity report a truncated maximizer (+-T_CAP, ``capped`` set);
    coordinates where it diverges make the value +infinity. Agrees with
    :func:`df_closed` whenever both are finite.
    """
    _require_same_space(P, Q)
    p, q = P.p, Q.p
    n = P.space.n
    h = np.zeros(n)
    capped = False
    total = 0.0

    esc = (q == 0.0) & (p > 0.0)
    if np.any(esc):
        # Nothing penalizes these coordinates, so p_i * t grows freely.
        h[esc] = T_CAP
        capped = True
        total = math.inf

    zero_p = (q > 0.0) & (p == 0.0)
    if np.any(zero_p):
        # sup_t (-q_i f*(t)) = q_i f(0), approached as t -> -inf.
        h[zero_p] = -T_CAP
        capped = True
        for qi in q[zero_p]:
            total += _charge(float(qi), g.f_at_zero)

    inner = (q > 0.0) & (p > 0.0)
    if np.any(inner):
        t_best, v_best = conjugate_sup(g, p[inner], q[inner], T_CAP, 1e-12)
        h[inner] = t_best
        total += finite(np.sum(v_best))

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


def intercept_ends(g: FGenerator, qs: np.ndarray) -> tuple[float, float]:
    """Ends of :func:`intercept_root`'s bracket for masses ``qs``, less max h.

    f*'(f'(1)) = 1, so d <= 0 at the lower end; the upper end is the
    domain end U of f*, or where U is infinite f'(2 / q_min), at which
    the top atom alone has q_min f*' >= 2.
    """
    hi = g.fstar_box_upper(math.inf, margin=0.0)
    return g.f_prime(1.0), (g.f_prime(2.0 / float(qs.min())) if math.isinf(hi) else hi)


def intercept_root(g: FGenerator, qs: np.ndarray, hs: np.ndarray, ends: tuple[float, float],
                   b0: float | None = None):
    """(b*, f*'(h + b*), f*''(h + b*)): the root of d(b) = E_Q[f*'(h + b)] - 1,
    by safeguarded Newton steps, with the slopes at it.

    ``qs`` and ``hs`` are Q and h on the support of Q, ``ends`` comes from
    :func:`intercept_ends`, and ``b0`` is a warm start, used where it lies
    inside the bracket. d is nondecreasing and convex, so from the lower
    end Newton steps land right of the root, then descend to it
    monotonically; a step off the bracket, or a slope that underflows,
    bisects it; a b with max h + b rounded onto the upper end counts as
    right of the root, so f* is evaluated inside its domain. The loop
    stops before it moves b, so the slopes of its last step are taken at
    b* itself; only if all 200 steps run are they evaluated afresh. Once
    no float splits the bracket, d jumps across 0 within rounding of the
    domain's end: the jump is the top atoms', and their slopes take it up.
    """
    top = float(hs.max())
    lo, hi = ends[0] - top, ends[1] - top
    b = b0 if b0 is not None and lo < b0 < hi and top + b0 < ends[1] else lo
    for _ in range(200):
        t = hs + b
        fp, fpp = g.fstar_prime_vec(t), g.fstar_second_vec(t)
        excess = float(qs @ fp) - 1.0
        lo, hi = (lo, b) if excess > 0.0 else (b, hi)
        slope = float(qs @ fpp)
        nb = b - excess / slope if slope > 0.0 else hi
        if excess == 0.0 or abs(nb - b) <= 2.0 * np.finfo(float).eps * (1.0 + abs(b)):
            break
        nb = nb if lo < nb < hi else 0.5 * (lo + hi)
        while lo < nb < hi and top + nb >= ends[1]:
            hi, nb = nb, 0.5 * (lo + nb)
        if not lo < nb < hi:
            fp[hs == top] -= excess / float(qs[hs == top].sum())
            break
        b = nb
    else:
        t = hs + b
        fp, fpp = g.fstar_prime_vec(t), g.fstar_second_vec(t)
    return b, fp, fpp


def r_functional(g: FGenerator, Q: Dist, h: FunctionOnSpace) -> tuple[float, float]:
    """Intercept-optimized conjugate term ``inf_b E_Q[f*(h+b)] - b``.

    Returns ``(value, b_star)`` with the infimum attained at ``b_star``.
    KL has the closed form ``ln E_Q[e^h]``, with ``b_star = 1 - ln E_Q[e^h]``.
    Total variation has d/db = Q(h + b > -1/2) - 1 <= 0, so
    ``b_star = 1/2 - max h`` over the support of Q puts max h at the
    domain's end, and the value is ``E_Q[max(h + b_star, -1/2)] - b_star``.
    Other generators go through :func:`r_functional_numeric`.
    """
    _require_same_space(Q, h)
    if g.name == "kl":
        lse = log_expectation_exp(Q, h.values)
        return lse, 1.0 - lse
    if g.name == "total_variation":
        mask = Q.p > 0.0
        hs = h.values[mask]
        b = 0.5 - float(hs.max())
        return float(Q.p[mask] @ np.maximum(hs + b, -0.5)) - b, b
    return r_functional_numeric(g, Q, h)


def r_functional_numeric(g: FGenerator, Q: Dist, h: FunctionOnSpace) -> tuple[float, float]:
    """:func:`r_functional` for any generator with a smooth conjugate.

    The intercept is the root of :func:`intercept_root`, and the value
    is evaluated exactly there. Exposed separately so the KL closed form
    can be cross-checked against it.
    """
    _require_same_space(Q, h)
    if not g.conjugate_smooth:
        raise ValidationError(f"{g.name} has no smooth conjugate for the Newton intercept")
    mask = Q.p > 0.0
    qs, hs = Q.p[mask], h.values[mask]
    b, _, _ = intercept_root(g, qs, hs, intercept_ends(g, qs))
    return float(qs @ g.fstar_vec(hs + b)) - b, b
