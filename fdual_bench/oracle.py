"""Independent re-computations the benchmark checks the program against.

Nothing here imports the package under test: the generator formulas,
the divergence sums and the linear KL adversarial objective are written
out again in plain numpy, so a check that passes is agreement between
two implementations rather than one implementation with itself.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)


def _xlogx(x):
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log(safe), 0.0)


def f_value(name: str, x: np.ndarray) -> np.ndarray:
    """The generator f on x >= 0."""
    x = np.asarray(x, dtype=float)
    if name == "kl":
        return _xlogx(x)
    if name == "pearson_chi2":
        return (x - 1.0) ** 2
    if name == "squared_hellinger":
        return (np.sqrt(x) - 1.0) ** 2
    if name == "js_gan":
        return _xlogx(x) - (x + 1.0) * np.log((x + 1.0) / 2.0)
    raise KeyError(name)


def fstar_value(name: str, t: np.ndarray) -> np.ndarray:
    """The conjugate sup_{x >= 0} (x t - f(x)); +inf outside its domain."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        if name == "kl":
            return np.exp(t - 1.0)
        if name == "pearson_chi2":
            return np.where(t >= -2.0, t + 0.25 * t * t, -1.0)
        if name == "squared_hellinger":
            return np.where(t < 1.0, t / (1.0 - t), np.inf)
        if name == "js_gan":
            return np.where(t < LN2, -np.log(2.0 - np.exp(np.minimum(t, LN2))), np.inf)
    raise KeyError(name)


def divergence(name: str, p: np.ndarray, q: np.ndarray) -> float:
    """sum_{q_i > 0} q_i f(p_i / q_i) for P dominated by Q."""
    mask = q > 0.0
    return float(np.sum(q[mask] * f_value(name, p[mask] / q[mask])))


def sup_objective(name, p, q, phi, a, b) -> float:
    """E_P[h] - E_Q[f*(h)] for the affine discriminator h = a . phi + b."""
    h = a @ phi + b
    mask = q > 0.0
    return float(p @ h - q[mask] @ fstar_value(name, h[mask]))


def inf_objective(name, p, q, phi, radius, pprime) -> float:
    """D_f(P' || Q) + R * || E_P[phi] - E_P'[phi] ||_2."""
    return divergence(name, pprime, q) + radius * float(np.linalg.norm(phi @ (p - pprime)))


def _kl_adversarial_values(A, m_data, logq, phi):
    """a . m_P - ln E_q[e^{a . phi}] for every row a of A."""
    z = A @ phi + logq
    top = z.max(axis=1)
    return A @ m_data - (top + np.log(np.exp(z - top[:, None]).sum(axis=1)))


def kl_adversarial(data: np.ndarray, q: np.ndarray, phi: np.ndarray, radius: float) -> float:
    """max_{||a||_2 <= R} a . E_data[phi] - ln E_q[e^{a . phi}] by grid and zoom.

    The objective is concave in a, so a dense grid over the ball locates
    the maximiser's cell and repeated finer grids around the incumbent
    (points projected back onto the ball) refine it. Supports k <= 2.
    """
    k = phi.shape[0]
    if k > 2:
        raise ValueError("grid oracle supports at most two features")
    m_data = phi @ data
    logq = np.log(q)

    def project(A):
        norms = np.linalg.norm(A, axis=1)
        scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
        return A * scale[:, None]

    def grid(center, half, points):
        axis = np.linspace(-half, half, points)
        if k == 1:
            offsets = axis[:, None]
        else:
            aa, bb = np.meshgrid(axis, axis)
            offsets = np.stack([aa.ravel(), bb.ravel()], axis=1)
        return project(center + offsets)

    best_a = np.zeros(k)
    best_v = _kl_adversarial_values(best_a[None, :], m_data, logq, phi)[0]
    center, half, points = np.zeros(k), radius, 101
    for _ in range(14):
        A = grid(center, half, points)
        vals = _kl_adversarial_values(A, m_data, logq, phi)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_a = float(vals[i]), A[i]
        center = best_a
        half = 4.0 * half / (points - 1)
        points = 41
    return float(best_v)
