"""One-dimensional root finding.

Bracketed Newton steps for the roots of non-increasing functions,
batched across independent coordinates (the first-order conditions of
the conjugate suprema in :mod:`fdual.fgen`). The intercept's root is
:func:`fdual.divergence.intercept_root`. Plain sign bisection has no
caller in the package; it is kept because the benchmark's tracer wraps
it by name.
"""

from __future__ import annotations

import numpy as np

# Steps this many ulps of |t| are rounding, not progress.
_ULPS = 4.0 * np.finfo(float).eps


def newton_root_nonincreasing(d, slope, t0, lo, hi, tol: float, max_iter: int = 200):
    """Coordinatewise root of non-increasing functions by bracketed Newton steps.

    ``d`` maps an array of abscissas to the values d_i(t_i), and
    ``slope`` to -d_i'(t_i) >= 0. ``lo`` and ``hi`` broadcast against ``t0``.
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
            step = np.where(dt == 0.0, 0.0, dt / slope(t))
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


def bisect_sign_change(dfun, lo: float, hi: float, tol: float = 1e-10, max_iter: int = 200):
    """Bisect for the zero crossing of a non-decreasing function.

    Requires ``dfun(lo) <= 0 <= dfun(hi)``; narrows to width ``tol`` and
    returns the midpoint. No package code calls it: the intercept is a
    Newton root (:func:`fdual.divergence.intercept_root`). It stays
    because the benchmark's tracer wraps it by name.
    """
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
