"""Maximum likelihood, moment matching, and linear adversarial fits.

Three ways of picking a member of a generator family to approximate an
observed distribution:

* ``fit_mle`` minimizes the KL divergence of the data from the member;
* ``fit_gmm`` minimizes the Euclidean distance between the data's and
  the member's feature means;
* ``fit_linear_fgan`` minimizes the ball-restricted adversarial
  divergence, which interpolates between the two: the intermediate
  distribution pays a per-unit price R for moving the feature means
  and the member pays KL beyond that.

Families are either the full simplex (softmax coordinates) or an
exponential tilt family over a full-support base. The moment-matching
and adversarial fits run one seeded multistart damped Newton descent on
exact derivatives: the moment gap's exact Hessian, and for the
adversarial objective Danskin's gradient with the envelope Hessian of
its inner solve. For a smooth generator the adversarial descent steps
jointly in the parameters and the discriminator: its trial points take
one inner Newton step from the discriminator moved with the parameters,
and exact inner solves remain where a start begins, tests a face or
stops. The descent runs over the closure of the family: when the
objective falls toward a face of it (members with no mass on some
atoms), the limit member on that face is reported, with no parameter.
A face is tried where two full Newton steps of settled length each
halved the mass off it, or where theta . psi splits the atoms at a gap.
Every report carries the cross-table of all three criteria at the
fitted member, so the estimators can be compared on equal footing; the
adversarial fit also carries the dual's intermediate distribution P'*.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .discriminator import LinearBall
from .divergence import kl_bar
from .dual import moment_projection
from .errors import SupportViolation, ValidationError
from .extreal import ExtReal, POS_INF, finite
from .fgen import FGenerator, builtin
from .primal import FACE_GAP, PrimalConfig, face_splits, newton_step, project_ball, restricted_div_primal
from .space import (
    Dist,
    FeatureMap,
    OutcomeSpace,
    _require_same_space,
    absolutely_continuous,
    feature_means,
    make_dist,
)

__all__ = [
    "FullSimplex",
    "ExpFamily",
    "GeneratorFamily",
    "FitConfig",
    "CrossContext",
    "FitReport",
    "family_dim",
    "family_member",
    "fit_mle",
    "fit_gmm",
    "fit_linear_fgan",
]


@dataclass(frozen=True)
class FullSimplex:
    """Every distribution on the space, via softmax coordinates."""

    space: OutcomeSpace


@dataclass(frozen=True)
class ExpFamily:
    """Exponential tilts of a full-support base distribution."""

    base: Dist
    psi: FeatureMap

    def __post_init__(self):
        _require_same_space(self.base, self.psi)
        if np.any(self.base.p <= 0.0):
            raise ValidationError("exponential family base must have full support")

    @property
    def space(self) -> OutcomeSpace:
        return self.base.space


GeneratorFamily = FullSimplex | ExpFamily


def family_dim(fam: GeneratorFamily) -> int:
    return fam.space.n if isinstance(fam, FullSimplex) else fam.psi.k


def family_member(fam: GeneratorFamily, theta: np.ndarray) -> Dist:
    """The family member at the given parameter vector."""
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("family parameter must be finite")
    if theta.shape != (family_dim(fam),):
        what = "simplex" if isinstance(fam, FullSimplex) else "tilt"
        raise ValidationError(f"{what} parameter needs shape ({family_dim(fam)},)")
    return _member(fam, theta)


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop controls shared by the three estimators."""

    max_iters: int = 150
    tol: float = 1e-8
    seed: int = 0
    starts: int = 5
    # Residual tolerance of the f-GAN fit's exact inner solves and of the
    # cross-table's. The joint trial points of a smooth generator's fit take
    # one inner Newton step each, with no tolerance; every reported value
    # comes from an exact solve.
    inner_tol: float = 1e-10

    def __post_init__(self):
        if self.max_iters < 1 or self.starts < 1:
            raise ValidationError("max_iters and starts must be at least 1")


@dataclass(frozen=True)
class CrossContext:
    """Discriminator context for the cross-criteria table."""

    generator: FGenerator | None = None
    phi: FeatureMap | None = None
    radius: ExtReal | None = None


@dataclass(frozen=True)
class FitReport:
    estimator: str
    q_star: Dist
    theta: np.ndarray | None
    objective: float
    cross: dict
    trajectory: dict
    notes: tuple[str, ...] = ()
    pprime: Dist | None = None


def _cross_table(Pdata: Dist, q_star: Dist, ctx: CrossContext, inner_tol: float) -> dict:
    out = {"mle": float(kl_bar(Pdata, q_star).value)}
    if ctx.phi is not None:
        gap = feature_means(Pdata, ctx.phi) - feature_means(q_star, ctx.phi)
        out["gmm"] = float(np.linalg.norm(gap))
        if ctx.generator is not None and ctx.radius is not None:
            rep = restricted_div_primal(
                ctx.generator, Pdata, q_star, LinearBall(ctx.phi, 2, ctx.radius),
                PrimalConfig(tol=inner_tol),
            )
            out["fgan"] = float(rep.value)
    return out


def fit_mle(
    fam: GeneratorFamily,
    Pdata: Dist,
    cfg: FitConfig | None = None,
    cross_context: CrossContext | None = None,
) -> FitReport:
    """Maximum likelihood: minimize KL(data || member).

    On the full simplex the optimum is the data itself. For an
    exponential family the optimum matches the data's psi-means: it is
    the KL moment projection of the base onto those means.
    """
    cfg = cfg or FitConfig()
    ctx = cross_context or CrossContext()
    _require_same_space(fam.base if isinstance(fam, ExpFamily) else fam, Pdata)
    if isinstance(fam, FullSimplex):
        return FitReport(
            estimator="mle",
            q_star=Pdata,
            theta=None,
            objective=0.0,
            cross=_cross_table(Pdata, Pdata, ctx, cfg.inner_tol),
            trajectory={"starts": 1, "iterations": 0, "converged": True},
        )
    if not absolutely_continuous(Pdata, fam.base):
        raise SupportViolation("data is not dominated by the family base")
    mp = moment_projection(builtin("kl"), Pdata, fam.base, fam.psi)
    converged = mp.status == "converged"
    notes = () if converged else ("tilt Newton stopped before matching psi-means",)
    if not mp.attained:
        notes += ("data psi-means lie on a face of the family's hull: no maximum-likelihood "
                  "parameter exists, and q_star is the limit member on that face",)
    q_star = mp.pprime
    objective = float(kl_bar(Pdata, q_star).value)
    return FitReport(
        estimator="mle",
        q_star=q_star,
        theta=mp.coefficients if mp.attained else None,
        objective=objective,
        cross=_cross_table(Pdata, q_star, ctx, cfg.inner_tol),
        trajectory={"starts": 1, "converged": converged},
        notes=notes,
    )


def _psi(fam: GeneratorFamily) -> np.ndarray:
    """The family's sufficient statistics, one row per parameter (softmax: the identity)."""
    return np.eye(fam.space.n) if isinstance(fam, FullSimplex) else fam.psi.values


def _member(fam: GeneratorFamily, theta: np.ndarray, off: np.ndarray | None = None) -> Dist:
    """The member at ``theta``, with no mass on the atoms ``off`` (a face of the closure)."""
    logw = theta.copy() if isinstance(fam, FullSimplex) else np.log(fam.base.p) + theta @ fam.psi.values
    if off is not None:
        logw[off] = -math.inf
    logw -= np.max(logw)
    w = np.exp(logw)
    return Dist(fam.space, w / w.sum())


def _mean_gradient(fam: GeneratorFamily, member: Dist, v: np.ndarray) -> np.ndarray:
    """d/dtheta E_member[v], v held fixed: Cov(psi, v), or q (v - E_q v) for softmax.

    A 2-D ``v`` gives one column per row.
    """
    c = member.p * (v - (v @ member.p)[..., None])
    return _psi(fam) @ c.T


def _mean_hessian(fam: GeneratorFamily, member: Dist, v: np.ndarray) -> np.ndarray:
    """d^2/dtheta^2 E_member[v], v held fixed: E_q[(psi - E psi)(psi - E psi)^T (v - E v)]."""
    psi = _psi(fam)
    centered = psi - (psi @ member.p)[:, None]
    c = member.p * (v - float(v @ member.p))
    return (centered * c) @ centered.T


def _identifiable(fam: GeneratorFamily, off: np.ndarray | None) -> np.ndarray:
    """Orthonormal basis of the parameter directions that move the member.

    The others (softmax's constant, a face's normals) are idle.
    """
    psi = _psi(fam)
    if off is not None:
        psi = psi[:, ~off]
    basis, sing, _ = np.linalg.svd(psi - psi[:, :1], full_matrices=False)
    return basis[:, sing > sing[0] * max(psi.shape) * np.finfo(float).eps]


def _newton_direction(grad: np.ndarray, hess: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt step -(H + mu I)^-1 grad within the span of ``basis``.

    mu is 0 where H is positive definite there. Otherwise (negative
    curvature, a flat valley) it lifts the least eigenvalue to ||grad||,
    so that no direction steps further than unit length.
    """
    g = basis.T @ grad
    lam, vecs = np.linalg.eigh(basis.T @ hess @ basis)
    if lam.size == 0:
        return np.zeros_like(grad)
    floor = 64.0 * np.finfo(float).eps * lam.size * max(float(np.abs(lam).max()), 1e-300)
    mu = 0.0 if lam[0] > floor else np.linalg.norm(g) - lam[0]
    denom = lam + mu
    coef = np.divide(vecs.T @ g, denom, out=np.zeros_like(lam), where=denom > 0.0)
    return -(basis @ (vecs @ coef))


def _rounding(psi: np.ndarray, normal: np.ndarray) -> float:  # of normal . (psi_i - psi_j)
    return 8.0 * sum(psi.shape) * np.finfo(float).eps * float(np.abs(normal) @ np.abs(psi).max(axis=1))


def _faces(fam: GeneratorFamily, theta: np.ndarray, off: np.ndarray | None):
    """Masks of the atoms off each certified face that ``theta`` heads to, top face first.

    The atoms split at a gap above ``FACE_GAP`` in theta . psi, and the
    split is a face of the hull of the psi_i (softmax: every split is),
    so the members along its normal tend to the member with no mass off it.
    This also sees faces reached by damped or turning steps.
    """
    psi = _psi(fam)
    u = theta @ psi
    free = np.arange(u.size) if off is None else np.flatnonzero(~off)
    if float(u[free].max() - u[free].min()) <= FACE_GAP:
        return
    top = psi[:, free[np.argmax(u[free])]]
    for on, _ in face_splits(theta, u, free, psi, top, lambda normal: _rounding(psi, normal)):
        yield ~np.isin(np.arange(u.size), on)


def _crawled_face(fam: GeneratorFamily, trail: list, d: np.ndarray, off: np.ndarray | None):
    """The mask of the atoms off the face that the last Newton direction ``d``
    exposes (the free atoms maximizing d . psi, where q(theta + t d) tends),
    once the last two full steps look like Newton's unit steps on an
    exponential tail V_face + c u (1 + rho u), u the mass off the face.

    ``trail`` holds (member, length of the full step that reached it) for
    the members joined by the last full steps. Each of the two steps must
    have halved the mass off the face, and the second may not be shorter
    than the first by more than that mass, relative to its own length. On
    the tail the steps tend to the length at which a step divides u by e,
    from below where rho > 0 and from above where rho < 0, by about 2 rho u
    relative; steps that still shrink by more than u come from a strongly
    concave stretch, on which the objective can turn back before the face,
    as a descent to a nearby interior optimum does.
    """
    if len(trail) == 3:
        psi = _psi(fam)
        u = d @ psi
        free = np.ones(u.size, dtype=bool) if off is None else ~off
        on = free & (u >= u[free].max() - _rounding(psi, d))
        m0, m1, m2 = (float(p[~on].sum()) for p, _ in trail)
        first, second = trail[1][1], trail[2][1]
        if 0.0 < m1 <= 0.5 * m0 and m2 <= 0.5 * m1 and first - second <= m2 * second:
            yield ~on


@dataclass
class _Start:
    value: float
    theta: np.ndarray
    off: np.ndarray | None
    basis: np.ndarray
    step: float  # length of the Newton step left at the end


def _multistart_descend(fam: GeneratorFamily, fun, cfg: FitConfig, value_floor: float = -math.inf,
                        trial=None):
    """Seeded multistart damped Newton descent on ``fun(member) = (value, gradient, Hessian)``.

    Each start takes Levenberg-Marquardt damped Newton steps in the
    parameters with Armijo backtracking (a few ulps of the value as
    slack), and stops when max |gradient| <= ``cfg.tol``. Two triggers
    propose faces of the family's closure: :func:`_crawled_face` reaches
    an exponential tail's face after two unit steps, from the members the
    descent already has; :func:`_faces` waits for a gap of ``FACE_GAP``,
    and stays for faces reached by damped or turning steps. Each face is
    tried once per start: the member with no mass off it is evaluated
    exactly, and if it is no worse the start goes on within that face,
    whose normal components of theta are then idle.

    ``trial(member, base, step, exact=False)``, if given, evaluates the
    line search's trial points instead of ``fun``, and the first point of
    each start after the first with ``exact`` true: ``member`` is
    ``base`` (the current member, or the first start's) moved by the
    parameter ``step``, and it returns (value, gradient, Hessian, exact),
    inexact where ``exact`` is false. The line
    search backtracks, and a start stops, only from an exact evaluation:
    where a trial fails the Armijo test against an inexact value, or the
    gradient test or a stall would stop the start on one, the current
    member is evaluated by ``fun`` and the start goes on from there; a
    start that reaches ``cfg.max_iters`` ends on such an evaluation.

    Returns (best start, total iterations, per-start values, distinct,
    starts run to ``cfg.max_iters``). Among near-equal optima the
    lexicographically smallest parameter wins, which keeps reports
    reproducible when the objective has flat stretches; ``distinct`` is
    true when two of them differ by more than their remaining Newton
    steps and rounding, in the directions that move the member.
    """
    dim = family_dim(fam)
    rng_root = np.random.SeedSequence([int(cfg.seed), dim])
    children = rng_root.spawn(max(cfg.starts - 1, 0))
    starts = [np.zeros(dim)]
    for child in children:
        starts.append(np.random.default_rng(child).normal(0.0, 1.0, size=dim))

    eps = np.finfo(float).eps
    results = []
    total_iters = 0
    capped = 0
    for theta0 in starts:
        theta, off, d = theta0.copy(), None, None
        basis = _identifiable(fam, off)
        member = _member(fam, theta)
        if trial is None or not results:
            val, grad, hess = fun(member)
            first = member
        else:  # exact, from the first start's inner iterate moved with theta
            val, grad, hess, _ = trial(member, first, theta - starts[0], exact=True)
        exact = True
        trail = [(member.p, 0.0)]  # members joined by the last full Newton steps
        tried: set[bytes] = set()
        it = 0
        for it in range(1, cfg.max_iters + 1):
            if not (math.isfinite(val) and val > value_floor and np.all(np.isfinite(grad))):
                break
            for face_off in itertools.chain(_crawled_face(fam, trail, d, off), _faces(fam, theta, off)):
                if face_off.tobytes() in tried:
                    continue
                tried.add(face_off.tobytes())
                out = fun(face := _member(fam, theta, face_off))
                if out[0] <= val:
                    off, member, (val, grad, hess), exact = face_off, face, out, True
                    basis, trail = _identifiable(fam, off), [(member.p, 0.0)]
                    break
            if not exact and float(np.max(np.abs(grad))) <= cfg.tol:
                (val, grad, hess), exact = fun(member), True
            if float(np.max(np.abs(grad))) <= cfg.tol:
                break
            d = _newton_direction(grad, hess, basis)
            slope = float(grad @ d)
            slack = 8.0 * eps * (1.0 + abs(val))
            s = 1.0
            while s > 1e-14:
                cand = theta + s * d
                new = _member(fam, cand, off)
                out = (*fun(new), True) if trial is None else trial(new, member, s * d)
                if out[0] <= val + 1e-4 * s * slope + slack:
                    break
                s = 0.5 * s if exact else 0.0  # backtrack from exact values only
            else:
                if exact:
                    break
                (val, grad, hess), exact = fun(member), True
                continue
            stalled = not out[0] < val
            theta, member, (val, grad, hess, exact) = cand, new, out
            trail = (trail[-2:] if s == 1.0 else []) + [(member.p, float(np.linalg.norm(d)))]
            if stalled:
                # The step is exact to the value's rounding: nothing left to gain.
                if exact:
                    break
                (val, grad, hess), exact = fun(member), True
        else:
            capped += 1
        if not exact:
            val, grad, hess = fun(member)
        total_iters += it
        step = np.linalg.norm(_newton_direction(grad, hess, basis)) if np.all(np.isfinite(grad)) else math.inf
        results.append(_Start(val, theta, off, basis, step))

    best_val = min(r.value for r in results)
    contenders = sorted((r for r in results if r.value <= best_val + 1e-10), key=lambda r: tuple(r.theta))
    best = contenders[0]

    def same(r):
        if (r.off is None) != (best.off is None) or (r.off is not None and np.any(r.off != best.off)):
            return False
        gap = np.linalg.norm(r.basis.T @ (r.theta - best.theta))
        rounding = 64.0 * eps * dim * (1.0 + np.linalg.norm(r.theta) + np.linalg.norm(best.theta))
        return gap <= r.step + best.step + rounding

    distinct = not all(same(r) for r in contenders)
    return best, total_iters, [r.value for r in results], distinct, capped


def fit_gmm(
    fam: GeneratorFamily,
    Pdata: Dist,
    phi: FeatureMap,
    cfg: FitConfig | None = None,
    cross_context: CrossContext | None = None,
) -> FitReport:
    """Moment matching: minimize || E_data[phi] - E_member[phi] ||_2.

    The full simplex admits many moment-matched members; the maximum
    entropy one (the KL moment projection of the uniform distribution)
    is returned for determinism.
    Exponential families are fit by the multistart Newton descent of
    :func:`_multistart_descend` on the squared gap, with its exact
    Hessian J^T J - sum_j d_j Hess E[phi_j], J = Cov(phi, psi) and d the
    gap (the residual term matters under mismatch, where d stays large).
    A fit that ends on a face of the family's closure reports the limit
    member and ``theta`` None.
    """
    cfg = cfg or FitConfig()
    ctx = cross_context or CrossContext(phi=phi)
    if ctx.phi is None:
        ctx = CrossContext(generator=ctx.generator, phi=phi, radius=ctx.radius)
    _require_same_space(Pdata, phi)
    target = feature_means(Pdata, phi)

    if isinstance(fam, FullSimplex):
        uniform = make_dist(fam.space, np.ones(fam.space.n))
        mp = moment_projection(builtin("kl"), Pdata, uniform, phi)
        q_star = mp.pprime
        objective = float(np.linalg.norm(target - feature_means(q_star, phi)))
        notes = ("maximum entropy representative of the moment-matched face",)
        if not mp.attained:
            notes += ("data phi-means lie on a face of the features' hull: no tilt of the "
                      "uniform distribution matches them, and q_star is the limit on that face",)
        return FitReport(
            estimator="gmm",
            q_star=q_star,
            theta=mp.coefficients if mp.attained else None,
            objective=objective,
            cross=_cross_table(Pdata, q_star, ctx, cfg.inner_tol),
            trajectory={"starts": 1, "converged": mp.status == "converged"},
            notes=notes,
        )

    def fun(member):  # the gap's Jacobian is -J, J = Cov(phi, psi)
        d = target - feature_means(member, phi)
        jac_t = _mean_gradient(fam, member, phi.values)
        return 0.5 * float(d @ d), -jac_t @ d, jac_t @ jac_t.T - _mean_hessian(fam, member, d @ phi.values)

    best, iters, per_start, distinct, _ = _multistart_descend(fam, fun, cfg, value_floor=1e-24)
    q_star = _member(fam, best.theta, best.off)
    objective = float(np.linalg.norm(target - feature_means(q_star, phi)))
    notes = _descent_notes(best, distinct)
    return FitReport(
        estimator="gmm",
        q_star=q_star,
        theta=best.theta if best.off is None else None,
        objective=objective,
        cross=_cross_table(Pdata, q_star, ctx, cfg.inner_tol),
        trajectory={"starts": cfg.starts, "iterations": iters, "per_start": per_start},
        notes=notes,
    )


def _descent_notes(best: _Start, distinct: bool) -> tuple[str, ...]:
    notes = ()
    if distinct:
        notes += ("multiple near-optimal parameters; lexicographically smallest reported",)
    if best.off is not None:
        notes += ("the descent ran off to a face of the family's closure: q_star is the limit "
                  "member on that face, no worse than the parameters the descent reached, and "
                  "has no parameter",)
    return notes


def _envelope(fam: GeneratorFamily, feats: np.ndarray, target: np.ndarray, radius: float, member: Dist,
              a: np.ndarray, conjugate, dh: np.ndarray | None = None):
    """(gradient, Hessian, dz) in theta of the f-GAN objective at ``member``,
    from the inner iterate z = (a, b) with h = a . phi + b.

    ``feats`` stacks phi over a row of ones, and ``target`` is (E_data[phi],
    1). ``conjugate`` is (f*, f*', f*'') at h per atom, from the inner
    solve's last pass. With z optimal, Danskin's theorem makes the gradient
    the theta-derivative L_t of L = a . E_data[phi] + b - E_q[f*(a . phi + b)]
    at z held fixed. Where z is one Newton step short of it, ``dh`` being
    the step's move of h, the terms are carried along the step to first
    order, f* by f*' dh and f*' by f*'' dh: the gradient becomes L_t + L_tz
    (z' - z) = L_t - C K^+ L_z, z' the stepped iterate. The envelope
    Hessian is L_tt + C K^+ C^T, with C =
    -L_tz and K = -L_zz the inner block E_q[f*''(h) (phi, 1)(phi, 1)^T] (the
    covariance that the primal's ``moments`` forms, before the intercept
    is eliminated): the Schur complement of the joint KKT matrix in (theta,
    z). ``dz`` = -K^+ C^T, its rows for a, is the first-order move of the
    inner optimum with theta. When the ball's multiplier lam = grad_a L .
    a / ||a||^2 is positive, K gains lam on the a-block and is restricted
    to the sphere's tangent space. Atoms pinned off an inner face drop out,
    as f*' = f*'' = 0 there, and K^+ leaves out the face normal along which
    the inner objective is flat.
    """
    fs, slope, curv = conjugate
    if dh is not None:
        fs, slope = fs + slope * dh, slope + curv * dh
    p = member.p
    psi = _psi(fam)
    centered = psi - (psi @ p)[:, None]  # Cov(psi, v) = centered @ (p v)
    grad = -(centered @ (p * fs))
    hess = -((centered * (p * (fs - float(fs @ p)))) @ centered.T)
    cross = centered @ (feats * (p * slope)).T
    block = (feats * (p * curv)) @ feats.T
    k = a.size
    norm2 = float(a @ a)
    if math.isfinite(radius) and norm2 >= (radius * (1.0 - 1e-9)) ** 2:
        lam = max(float((target - feats @ (p * slope))[:k] @ a), 0.0) / norm2
        if lam > 0.0:
            block[:k, :k] += lam * np.eye(k)
            normal = np.append(a, 0.0) / math.sqrt(norm2)
            tangent = np.eye(k + 1) - np.outer(normal, normal)
            block = tangent @ block @ tangent  # K^+ below then drops the normal
    mu, vecs = np.linalg.eigh(block)
    keep = mu > 64.0 * np.finfo(float).eps * mu.size * max(float(mu[-1]), 1e-300)
    vecs, mu = vecs[:, keep], mu[keep]
    proj = cross @ vecs
    half = proj / np.sqrt(mu)
    return grad, hess + half @ half.T, -(vecs[:k] / mu) @ proj.T


def fit_linear_fgan(
    fam: GeneratorFamily,
    Pdata: Dist,
    g: FGenerator,
    phi: FeatureMap,
    radius: ExtReal | float,
    cfg: FitConfig | None = None,
) -> FitReport:
    """Adversarial fit: minimize the ball-restricted divergence.

    The outer landscape over family parameters is generally nonconvex,
    so the seeded multistart Newton descent of :func:`_multistart_descend`
    is used. For a smooth generator it takes joint steps in the parameters
    theta and the discriminator z = (a, b): an exact inner solve (residual
    at most ``cfg.inner_tol``) gives the value, Danskin's gradient and the
    envelope Hessian (:func:`_envelope`), and each trial point of a line
    search moves z to first order with theta and takes one inner Newton
    step from there (:func:`~fdual.primal.newton_step`), whose value and
    corrected gradient are exact to second order. Exact solves stay at
    each start's first point (after the first start, from its z moved
    with theta), at face trials and wherever a start would stop (from the
    z it reached); each distinct member is solved exactly once per fit,
    and the report reuses the solve at ``q_star``.
    Total variation has no f*'' for the joint step, so every evaluation
    is an exact solve, and only L_tt enters its Hessian. When no
    minimiser exists and the objective falls toward a face of the
    family's closure, ``q_star`` is the limit member on it and ``theta``
    is None. ``pprime`` is the dual's intermediate distribution, the tilt
    q* f*'(h*) of the inner solve at ``q_star``; for KL at an attained
    optimum q* matches its psi-means, so q* is the maximum-likelihood
    member for P'*. The trajectory counts the exact inner solves
    (``inner_solves``) and all inner Newton iterations (``inner_steps``:
    the solves' iterations plus one per joint step).
    """
    cfg = cfg or FitConfig()
    if not isinstance(radius, ExtReal):
        radius = POS_INF if math.isinf(float(radius)) else finite(float(radius))
    _require_same_space(Pdata, phi)
    dim = family_dim(fam)
    spec = LinearBall(phi, 2, radius)
    r = float(radius)
    feats = np.vstack([phi.values, np.ones(phi.space.n)])
    target = np.append(feature_means(Pdata, phi), 1.0)
    inner_cfg = PrimalConfig(tol=cfg.inner_tol)
    solved = {}  # member bytes -> (inner report, (value, gradient, Hessian))
    joint = {}  # member bytes -> (inner iterate, its move with theta) of the last evaluation there
    counts = {"inner_solves": 0, "inner_steps": 0}

    def fun(member):
        key = member.p.tobytes()
        if key in solved:
            return solved[key][1]
        warm = joint.pop(key, None)
        rep = restricted_div_primal(g, Pdata, member, spec, inner_cfg, start=None if warm is None else warm[0])
        counts["inner_solves"] += 1
        counts["inner_steps"] += rep.iterations
        if rep.h_opt is None:  # unbounded: no gradient
            out = float(rep.value), np.full(dim, math.nan), np.full((dim, dim), math.nan)
        elif rep.conjugate is None:
            fs = np.zeros(member.p.size)
            on = member.p > 0.0
            fs[on] = g.fstar_vec(rep.h_opt.values[on])[0]
            out = float(rep.value), -_mean_gradient(fam, member, fs), -_mean_hessian(fam, member, fs)
        else:
            grad, hess, dz = _envelope(fam, feats, target, r, member, rep.coefficients, rep.conjugate())
            out = float(rep.value), grad, hess
            if rep.attained:
                joint[key] = rep.coefficients, dz
        solved[key] = rep, out
        return out

    def trial(member, base, step, exact=False):
        key = member.p.tobytes()
        state = joint.get(base.p.tobytes())
        if key in solved or state is None:  # solved already, or no inner iterate to follow (an inner face)
            return (*fun(member), True)
        a = project_ball(state[0] + state[1] @ step, 2.0, r)
        if exact:
            joint[key] = a, None  # where fun's solve starts
            return (*fun(member), True)
        value, stepped, conjugate, dh = newton_step(g, Pdata, member, phi, r, a)
        counts["inner_steps"] += 1
        grad, hess, dz = _envelope(fam, feats, target, r, member, a, conjugate, dh)
        joint[key] = stepped, dz
        return value, grad, hess, False

    best, iters, per_start, distinct, capped = _multistart_descend(
        fam, fun, cfg, trial=trial if g.conjugate_smooth else None)
    q_star = _member(fam, best.theta, best.off)
    rep = solved[q_star.p.tobytes()][0]
    notes = _descent_notes(best, distinct)
    if capped == len(per_start):
        # The reported theta then moves with the cap.
        notes += (
            f"every start ran to max_iters={cfg.max_iters}; theta is where the "
            "descent stopped, not a located minimiser",
        )
    return FitReport(
        estimator="fgan",
        q_star=q_star,
        theta=best.theta if best.off is None else None,
        objective=float(rep.value),
        cross={**_cross_table(Pdata, q_star, CrossContext(phi=phi), cfg.inner_tol),
               "fgan": float(rep.value)},
        trajectory={
            "starts": cfg.starts,
            "iterations": iters,
            "per_start": per_start,
            "inner_status": rep.status,
            **counts,
        },
        notes=notes,
        pprime=rep.pprime,
    )
