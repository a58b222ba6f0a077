"""Reference 1-D searches that the tests compare the solvers against.

Golden-section maximization of a concave function (scalar and batched
across independent coordinates) and a geometric ladder that brackets
its maximizer. They use only comparisons of function values, so they
share no logic with the Newton steps of :mod:`fdual` and serve as
independent oracles. Infeasible points are encoded as ``-inf``.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


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


def _ladder_points(lo_cap: float, hi_cap: float, unit: bool = False):
    """Geometric ladder 0, +-2^-10 .. +-1 (scaled) clipped to the box."""
    ladder = [2.0 ** j for j in range(-10, 1)]
    pts = sorted({-u for u in ladder} | {0.0} | set(ladder))
    if unit:
        return pts
    out = sorted({min(max(p * max(abs(lo_cap), abs(hi_cap)), lo_cap), hi_cap) for p in pts})
    return out
