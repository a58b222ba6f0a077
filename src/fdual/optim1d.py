"""One-dimensional root finding.

Bracketed Newton steps for the roots of non-increasing functions,
batched across independent coordinates (the first-order conditions of
the conjugate suprema in :mod:`fdual.fgen`), and sign bisection, with
regula falsi narrowing, for the zero crossing of a non-decreasing
derivative (the intercept of :mod:`fdual.divergence`).
"""

from __future__ import annotations

import math

import numpy as np

# Steps this many ulps of |t| are rounding, not progress.
_ULPS = 4.0 * np.finfo(float).eps
# Regula falsi calls before the halvings take over the narrowing.
_FALSI_MAX_CALLS = 40


def newton_root_nonincreasing(d, slope, t0, lo, hi, tol: float, max_iter: int = 200):
    """Coordinatewise root of non-increasing functions by bracketed Newton steps.

    ``d`` maps an array of abscissas to the values d_i(t_i), and
    ``slope`` to -d_i'(t_i) >= 0; it is ``None`` where d has jumps, and
    then every step bisects. ``lo`` and ``hi`` broadcast against ``t0``.
    Each coordinate starts at ``t0`` clipped into [lo_i, hi_i] (at the
    midpoint where ``t0`` is NaN) and keeps a bracket that d > 0 moves
    up and d < 0 moves down. A Newton step bisects the bracket instead
    when it would leave it, or when it is longer than half the step
    before last (Press et al.'s ``rtsafe`` rule, so a slow approach
    along an exponential still halves the bracket every few steps). A
    coordinate stops when d is 0, when its step is within ``tol`` or
    within the rounding of t, or when its bracket is narrower than
    ``tol``. A root beyond an end of [lo_i, hi_i] is reported as that
    end, within ``tol``.
    """
    a = np.asarray(lo, dtype=float)
    b = np.asarray(hi, dtype=float)
    t0 = np.asarray(t0, dtype=float)
    t = np.where(np.isnan(t0), 0.5 * (a + b), np.clip(t0, a, b))
    active = np.ones(t.shape, dtype=bool)
    last = before_last = b - a
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            dt = d(t)
            # Stopped coordinates stay put, so moving their ends is harmless.
            a = np.where(dt > 0.0, t, a)
            b = np.where(dt < 0.0, t, b)
            step = np.where(dt == 0.0, 0.0, dt / slope(t) if slope is not None else np.nan)
            nt = t + step
            size = np.abs(step)
            # A step within rounding may not clear t, which is a bracket end.
            small = size <= np.maximum(tol, _ULPS * np.abs(t))
            newton = (nt > a) & (nt < b) & (small | (size <= 0.5 * before_last))
            nt = np.where(newton, nt, np.where(small, t, 0.5 * (a + b)))
            before_last, last = last, np.abs(nt - t)
            t = np.where(active, nt, t)
            active &= ~small & (b - a > tol)
            if not active.any():
                break
    return t


def bisect_sign_change(
    dfun,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    d_lo: float | None = None,
    d_hi: float | None = None,
):
    """Bisect for the zero crossing of a non-decreasing function.

    Requires ``dfun(lo) <= 0 <= dfun(hi)``; narrows to width ``tol`` and
    returns the midpoint. Used for minimizing convex functions via the
    sign of their (sub)derivative.

    When the caller already holds ``d_lo = dfun(lo)`` and
    ``d_hi = dfun(hi)``, regula falsi steps narrow the crossing to a
    bracket below ``tol / 4``. The halvings then read the sign of every
    midpoint outside that bracket from the bracket itself and call
    ``dfun`` only inside it. They visit the same midpoints and return the same point
    as without the values, after a handful of calls instead of one per
    halving when ``dfun`` is smooth.
    """
    if d_lo is not None and d_hi is not None and d_lo <= 0.0 < d_hi:
        a_in, b_in = _regula_falsi(dfun, float(lo), float(hi), d_lo, d_hi, 0.25 * tol)
        evaluate = dfun

        def dfun(m: float) -> float:
            if m <= a_in:
                return -1.0
            if m >= b_in:
                return 1.0
            return evaluate(m)

    a, b = float(lo), float(hi)
    for _ in range(max_iter):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if dfun(m) <= 0.0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _regula_falsi(dfun, a, b, da, db, tol):
    """Narrow ``dfun(a) <= 0 < dfun(b)`` towards width ``tol`` (Illinois variant).

    A step after two steps that together did not halve the bracket is a
    bisection, so the bracket at least halves every three calls. Every
    end it returns was either given or evaluated with that sign.
    """
    side = 0
    w_two_back = w_one_back = math.inf
    for _ in range(_FALSI_MAX_CALLS):
        w = b - a
        if w <= tol:
            break
        if w <= 0.5 * w_two_back and db - da > 0.0:
            # Stay tol/2 inside the bracket so that every step shrinks it.
            x = min(max(a - da * (w / (db - da)), a + 0.5 * tol), b - 0.5 * tol)
        else:
            x = 0.5 * (a + b)
        w_two_back, w_one_back = w_one_back, w
        dx = dfun(x)
        if dx <= 0.0:
            a, da = x, dx
            if side < 0:
                db *= 0.5
            side = -1
        else:
            b, db = x, dx
            if side > 0:
                da *= 0.5
            side = 1
    return a, b
