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
its inner solve. The descent runs over the closure of the family: when
the objective falls toward a face of it (members with no mass on some
atoms), the limit member on that face is reported, with no parameter.
A face is tried where two full Newton steps each halved the mass off
it, or where theta . psi splits the atoms at a gap.
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
from .primal import FACE_GAP, PrimalConfig, face_splits, restricted_div_primal
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
    rel = psi - psi[:, [free[np.argmax(u[free])]]]
    for on, _ in face_splits(theta, u, free, rel, lambda normal: _rounding(psi, normal)):
        yield ~np.isin(np.arange(u.size), on)


def _crawled_face(fam: GeneratorFamily, trail: list, d: np.ndarray, off: np.ndarray | None):
    """The mask of the atoms off the face that the last Newton direction ``d``
    exposes (the free atoms maximizing d . psi, where q(theta + t d) tends),
    once the mass off it halved on each of the two full steps joining the
    members ``trail``: Newton's unit steps on an exponential tail do that,
    and never where that mass settles at an interior optimum.
    """
    if len(trail) == 3:
        psi = _psi(fam)
        u = d @ psi
        free = np.ones(u.size, dtype=bool) if off is None else ~off
        on = free & (u >= u[free].max() - _rounding(psi, d))
        m0, m1, m2 = (float(p[~on].sum()) for p in trail)
        if 0.0 < m1 <= 0.5 * m0 and m2 <= 0.5 * m1:
            yield ~on


@dataclass
class _Start:
    value: float
    theta: np.ndarray
    off: np.ndarray | None
    basis: np.ndarray
    step: float  # length of the Newton step left at the end


def _multistart_descend(fam: GeneratorFamily, fun, cfg: FitConfig, value_floor: float = -math.inf):
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
        val, grad, hess = fun(member := _member(fam, theta))
        trail = [member.p]  # members joined by the last full Newton steps
        tried: set[bytes] = set()
        it = 0
        for it in range(1, cfg.max_iters + 1):
            if not (math.isfinite(val) and val > value_floor and np.all(np.isfinite(grad))):
                break
            for face_off in itertools.chain(_crawled_face(fam, trail, d, off), _faces(fam, theta, off)):
                if face_off.tobytes() in tried:
                    continue
                tried.add(face_off.tobytes())
                out = fun(member := _member(fam, theta, face_off))
                if out[0] <= val:
                    off, (val, grad, hess) = face_off, out
                    basis, trail = _identifiable(fam, off), [member.p]
                    break
            if float(np.max(np.abs(grad))) <= cfg.tol:
                break
            d = _newton_direction(grad, hess, basis)
            slope = float(grad @ d)
            slack = 8.0 * eps * (1.0 + abs(val))
            s = 1.0
            while s > 1e-14:
                cand = theta + s * d
                out = fun(member := _member(fam, cand, off))
                if out[0] <= val + 1e-4 * s * slope + slack:
                    break
                s *= 0.5
            else:
                break
            stalled = not out[0] < val
            theta, (val, grad, hess) = cand, out
            trail = (trail[-2:] if s == 1.0 else []) + [member.p]
            if stalled:
                # The step is exact to the value's rounding: nothing left to gain.
                break
        else:
            capped += 1
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


def _envelope(fam: GeneratorFamily, g: FGenerator, Pdata: Dist, phi: FeatureMap, radius: float,
              member: Dist, rep):
    """(gradient, Hessian) in theta of the f-GAN objective at ``member``.

    ``rep`` is the inner solve there, with optimum z* = (a*, b*) and h* =
    a* . phi + b*. By Danskin's theorem the gradient is the theta-derivative
    of L = a . E_data[phi] + b - E_q[f*(a . phi + b)] at z* held fixed. The
    envelope Hessian is L_tt + L_tz K^+ L_zt, with K = -L_zz the inner
    block E_q[f*''(h*) (phi, 1)(phi, 1)^T] (the covariance that the primal's
    ``moments`` forms, before the intercept is eliminated). When the ball's
    multiplier lam = grad_a J . a / ||a||^2 is positive, K gains lam on the
    a-block and is restricted to the sphere's tangent space. Atoms pinned
    off an inner face drop out, as f*' = f*'' = 0 there, and K^+ leaves
    out the face normal along which the inner objective is flat. Without
    f*'' (total variation) only L_tt is used.
    """
    on = member.p > 0.0
    h = rep.h_opt.values
    fs, slope, curv = np.zeros(h.size), np.zeros(h.size), np.zeros(h.size)
    with np.errstate(over="ignore"):  # pinned atoms overflow to slopes of exactly 0
        fs[on] = g.fstar_vec(h[on])[0]
        slope[on] = g.fstar_prime_vec(h[on])
        if g.conjugate_smooth:
            curv[on] = g.fstar_second_vec(h[on])
    grad = -_mean_gradient(fam, member, fs)
    hess = -_mean_hessian(fam, member, fs)
    if not g.conjugate_smooth:
        return grad, hess
    feats = np.vstack([phi.values, np.ones(h.size)])
    cross = _mean_gradient(fam, member, feats * slope)
    block = (feats * (member.p * curv)) @ feats.T
    a = rep.coefficients
    k = a.size
    lam = 0.0
    if math.isfinite(radius) and np.linalg.norm(a) >= radius * (1.0 - 1e-9):
        grad_a = phi.values @ (Pdata.p - member.p * slope)
        lam = max(float(grad_a @ a), 0.0) / float(a @ a)
    if lam > 0.0:
        block[:k, :k] += lam * np.eye(k)
        normal = np.append(a, 0.0)[None, :]
        tangent = np.linalg.svd(normal)[2][1:].T
        cross, block = cross @ tangent, tangent.T @ block @ tangent
    mu, vecs = np.linalg.eigh(block)
    keep = mu > 64.0 * np.finfo(float).eps * mu.size * max(float(mu[-1]), 1e-300)
    half = (cross @ vecs[:, keep]) / np.sqrt(mu[keep])
    return grad, hess + half @ half.T


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
    is used. The inner discriminator problem is solved to high accuracy
    per evaluation (for a smooth generator on a 2-ball or an unconstrained
    coefficient set, by the primal's Newton solve); by Danskin's theorem
    its optimum gives the gradient, and :func:`_envelope` the Hessian.
    Each outer iteration costs one inner solve per trial point, plus one
    where it tests a face; the report reuses the descent's solve at
    ``q_star``. When no minimiser exists and the objective falls toward
    a face of the family's closure, ``q_star`` is the limit member on it
    and ``theta`` is None. ``pprime`` is the dual's intermediate
    distribution, the tilt q* f*'(h*) of that inner solve; for KL at an
    attained optimum q* matches its psi-means, so q* is the
    maximum-likelihood member for P'*.
    """
    cfg = cfg or FitConfig()
    if not isinstance(radius, ExtReal):
        radius = POS_INF if math.isinf(float(radius)) else finite(float(radius))
    _require_same_space(Pdata, phi)
    dim = family_dim(fam)
    spec = LinearBall(phi, 2, radius)
    inner_cfg = PrimalConfig(tol=cfg.inner_tol)
    solves = {}  # inner reports by member, for the one at q_star

    def fun(member):
        rep = solves[member.p.tobytes()] = restricted_div_primal(g, Pdata, member, spec, inner_cfg)
        if rep.h_opt is None:  # unbounded: no gradient
            return float(rep.value), np.full(dim, math.nan), np.full((dim, dim), math.nan)
        return (float(rep.value), *_envelope(fam, g, Pdata, phi, float(radius), member, rep))

    best, iters, per_start, distinct, capped = _multistart_descend(fam, fun, cfg)
    q_star = _member(fam, best.theta, best.off)
    rep = solves[q_star.p.tobytes()]
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
        },
        notes=notes,
        pprime=rep.pprime,
    )
