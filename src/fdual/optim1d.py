"""One-dimensional search primitives.

Golden-section maximization of concave functions (scalar and batched
across independent coordinates) and sign bisection for convex
minimization. Infeasible points are encoded as ``-inf`` objective
values; the searches only compare such values, never combine them
arithmetically.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0
# Regula falsi calls before the halvings take over the narrowing.
_FALSI_MAX_CALLS = 40


def golden_max(fun, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200):
    """Maximize a concave function on [lo, hi] by golden-section search.

    Returns ``(x, fun(x))`` with the interval narrowed below ``tol`` (or
    ``max_iter`` exhausted). Flat stretches are fine: any point of a
    maximizing plateau is an acceptable answer for a concave function.
    """
    a, b = float(lo), float(hi)
    if not b >= a:
        raise ValueError("empty interval")
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    x1 = a + _INVPHI2 * h
    x2 = a + _INVPHI * h
    f1, f2 = fun(x1), fun(x2)
    for _ in range(max_iter):
        if h <= tol:
            break
        if f1 >= f2:
            b, x2, f2 = x2, x1, f1
            h = b - a
            x1 = a + _INVPHI2 * h
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            h = b - a
            x2 = a + _INVPHI * h
            f2 = fun(x2)
    x = x1 if f1 >= f2 else x2
    return x, fun(x)


def golden_max_batch(fun, lo: np.ndarray, hi: np.ndarray, tol: float = 1e-12):
    """Coordinatewise golden-section maximization.

    ``fun`` maps an array of abscissas (one per coordinate) to an array
    of objective values; each coordinate is an independent concave
    problem on [lo_i, hi_i]. Returns ``(x, fun_at_x)`` arrays.
    """
    a = np.asarray(lo, dtype=float).copy()
    b = np.asarray(hi, dtype=float).copy()
    width = float(np.max(b - a))
    if width <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    n_iter = max(1, int(math.ceil(math.log(tol / width) / math.log(_INVPHI))))
    h = b - a
    x1 = a + _INVPHI2 * h
    x2 = a + _INVPHI * h
    f1, f2 = fun(x1), fun(x2)
    for _ in range(n_iter - 1):
        # Each coordinate keeps the surviving interior point and its
        # value, so one call per step evaluates only the new points.
        left = f1 >= f2
        b = np.where(left, x2, b)
        a = np.where(left, a, x1)
        h = b - a
        x_new = np.where(left, a + _INVPHI2 * h, a + _INVPHI * h)
        f_new = fun(x_new)
        x1, f1, x2, f2 = (
            np.where(left, x_new, x2),
            np.where(left, f_new, f2),
            np.where(left, x1, x_new),
            np.where(left, f1, f_new),
        )
    left = f1 >= f2
    b = np.where(left, x2, b)
    a = np.where(left, a, x1)
    x = 0.5 * (a + b)
    return x, fun(x)


def ladder_bracket(fun, lo_cap: float, hi_cap: float):
    """Bracket the maximizer of a concave function by a geometric ladder.

    Evaluates ``fun`` at 0 and +-2^j clipped to [lo_cap, hi_cap] and
    returns the neighbors of the best ladder point. For a concave
    function the true maximizer lies between the neighbors of the
    sampled argmax.
    """
    pts = _ladder_points(lo_cap, hi_cap)
    vals = [fun(t) for t in pts]
    i = int(np.argmax(vals))
    lo = pts[max(i - 1, 0)]
    hi = pts[min(i + 1, len(pts) - 1)]
    return lo, hi


def ladder_bracket_batch(fun, lo_cap: np.ndarray, hi_cap: np.ndarray):
    """Batched version of :func:`ladder_bracket`.

    ``lo_cap`` and ``hi_cap`` are per-coordinate caps; ``fun`` maps an
    abscissa array to a value array. Returns per-coordinate (lo, hi).
    """
    lo_cap = np.asarray(lo_cap, dtype=float)
    hi_cap = np.asarray(hi_cap, dtype=float)
    n = lo_cap.shape[0]
    base = _ladder_points(-1.0, 1.0, unit=True)  # canonical ladder in [-1, 1]
    # Map the canonical ladder onto each coordinate's box, keeping 0 fixed.
    u = np.array(base)[:, None]
    grid = np.clip(np.where(u >= 0, u * hi_cap, -u * lo_cap), lo_cap, hi_cap)
    vals = np.stack([fun(grid[j]) for j in range(len(base))])
    best = np.argmax(vals, axis=0)
    idx_lo = np.maximum(best - 1, 0)
    idx_hi = np.minimum(best + 1, len(base) - 1)
    cols = np.arange(n)
    return grid[idx_lo, cols], grid[idx_hi, cols]


def _ladder_points(lo_cap: float, hi_cap: float, unit: bool = False):
    """Geometric ladder 0, +-2^-10 .. +-1 (scaled) clipped to the box."""
    ladder = [2.0 ** j for j in range(-10, 1)]
    pts = sorted({-u for u in ladder} | {0.0} | set(ladder))
    if unit:
        return pts
    out = sorted({min(max(p * max(abs(lo_cap), abs(hi_cap)), lo_cap), hi_cap) for p in pts})
    return out


def bisect_sign_change(
    dfun,
    lo: float,
    hi: float,
    tol: float = 1e-10,
    max_iter: int = 200,
    d_lo: float | None = None,
    d_hi: float | None = None,
    guess: float | None = None,
):
    """Bisect for the zero crossing of a non-decreasing function.

    Requires ``dfun(lo) <= 0 <= dfun(hi)``; narrows to width ``tol`` and
    returns the midpoint. Used for minimizing convex functions via the
    sign of their (sub)derivative.

    When the caller already holds ``d_lo = dfun(lo)`` and
    ``d_hi = dfun(hi)``, regula falsi steps (the first one at ``guess``,
    if it lies inside) narrow the crossing to a bracket below
    ``tol / 4``. The halvings then read the sign of every midpoint
    outside that bracket from the bracket itself and call ``dfun`` only
    inside it. They visit the same midpoints and return the same point
    as without the values, after a handful of calls instead of one per
    halving when ``dfun`` is smooth.
    """
    if d_lo is not None and d_hi is not None and d_lo <= 0.0 < d_hi:
        a_in, b_in = _regula_falsi(dfun, float(lo), float(hi), d_lo, d_hi, 0.25 * tol, guess)
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


def _regula_falsi(dfun, a, b, da, db, tol, guess=None):
    """Narrow ``dfun(a) <= 0 < dfun(b)`` towards width ``tol`` (Illinois variant).

    A step after two steps that together did not halve the bracket is a
    bisection, so the bracket at least halves every three calls. Every
    end it returns was either given or evaluated with that sign.
    """
    x = guess if guess is not None and a < guess < b else None
    side = 0
    w_two_back = w_one_back = math.inf
    for _ in range(_FALSI_MAX_CALLS):
        w = b - a
        if w <= tol:
            break
        if x is None:
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
        x = None
    return a, b
