"""Maximum likelihood, moment matching, and linear adversarial fits.

Three ways of picking a member of a generator family to approximate an
observed distribution:

* ``fit_mle`` minimizes the KL divergence of the data from the member;
* ``fit_gmm`` minimizes the Euclidean distance between the data's and
  the member's feature means;
* ``fit_linear_fgan`` minimizes the ball-restricted adversarial
  divergence. Its fit tends to the moment-matching one as R -> 0 and is
  the maximum-likelihood one under KL at R = inf when phi spans the
  functions on the space; in between it is in general neither, and it
  need not lie between the two.

On the full simplex all three fits are closed form: maximum likelihood
returns the data, and the other two the maximum-entropy member with the
data's phi-means, where every restricted divergence is 0. On an
exponential tilt family over a full-support base the moment-matching
and adversarial fits run one seeded multistart damped Newton descent on
exact derivatives: the moment gap's exact Hessian, and for the
adversarial objective Danskin's gradient with the envelope Hessian of
its inner solve. Its starts advance in lockstep, one step each per pass
with their array work stacked, and each start's trajectory is the one it
would take alone: the starts share only the first start's first
evaluation, which the others' first inner solves start from, and the
fit's cache of exact solves. For a smooth generator the adversarial descent steps
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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .discriminator import LinearBall
from .divergence import kl_bar
from .errors import SupportViolation, ValidationError
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
    "INNER_TOL",
    "CrossContext",
    "FitReport",
    "family_member",
    "fit_mle",
    "fit_gmm",
    "fit_linear_fgan",
]


@dataclass(frozen=True)
class FullSimplex:
    """Every distribution on the space. It has no parameter: its fits are closed form."""

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


def family_member(fam: ExpFamily, theta: np.ndarray) -> Dist:
    """The tilt family's member at the given parameter vector."""
    if not isinstance(fam, ExpFamily):
        raise ValidationError("the full simplex has no parameter: family_member takes an ExpFamily")
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValidationError("family parameter must be finite")
    if theta.shape != (fam.psi.k,):
        raise ValidationError(f"tilt parameter needs shape ({fam.psi.k},)")
    return _member(fam, theta)


@dataclass(frozen=True)
class FitConfig:
    """Outer-loop controls of the moment-matching and f-GAN fits."""

    max_iters: int = 150
    tol: float = 1e-8
    seed: int = 0
    starts: int = 5

    def __post_init__(self):
        if self.max_iters < 1 or self.starts < 1:
            raise ValidationError("max_iters and starts must be at least 1")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError("seed must be a non-negative integer")
        if not 0.0 < self.tol < math.inf:
            raise ValidationError("tol must be positive and finite")


# Residual tolerance of the f-GAN fit's exact inner solves and of the
# cross-table's. The joint trial points of a smooth generator's fit take
# one inner Newton step each, with no tolerance; every reported value
# comes from an exact solve.
INNER_TOL = 1e-10


@dataclass(frozen=True)
class CrossContext:
    """Discriminator context for the cross-criteria table."""

    generator: FGenerator | None = None
    phi: FeatureMap | None = None
    radius: float | None = None


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


def _cross_table(Pdata: Dist, q_star: Dist, ctx: CrossContext) -> dict:
    out = {"mle": kl_bar(Pdata, q_star).value}
    if ctx.phi is not None:
        gap = feature_means(Pdata, ctx.phi) - feature_means(q_star, ctx.phi)
        out["gmm"] = float(np.linalg.norm(gap))
        if ctx.generator is not None and ctx.radius is not None:
            rep = restricted_div_primal(
                ctx.generator, Pdata, q_star, LinearBall(ctx.phi, 2, ctx.radius),
                PrimalConfig(tol=INNER_TOL),
            )
            out["fgan"] = rep.value
    return out


def fit_mle(
    fam: GeneratorFamily,
    Pdata: Dist,
    cross_context: CrossContext | None = None,
) -> FitReport:
    """Maximum likelihood: minimize KL(data || member).

    On the full simplex the optimum is the data itself. For an
    exponential family the optimum matches the data's psi-means: it is
    the KL moment projection of the base onto those means, the tilt of the
    base at the infinite-radius KL primal's optimum.
    """
    ctx = cross_context or CrossContext()
    _require_same_space(fam.base if isinstance(fam, ExpFamily) else fam, Pdata)
    if isinstance(fam, FullSimplex):
        return FitReport(
            estimator="mle",
            q_star=Pdata,
            theta=None,
            objective=0.0,
            cross=_cross_table(Pdata, Pdata, ctx),
            trajectory={"starts": 1, "iterations": 0, "converged": True},
        )
    if not absolutely_continuous(Pdata, fam.base):
        raise SupportViolation("data is not dominated by the family base")
    mp = restricted_div_primal(builtin("kl"), Pdata, fam.base, LinearBall(fam.psi, 2, math.inf),
                               PrimalConfig(tol=1e-10))
    converged = mp.status == "converged"
    notes = () if converged else ("tilt Newton stopped before matching psi-means",)
    if not mp.attained:
        notes += ("data psi-means lie on a face of the family's hull: no maximum-likelihood "
                  "parameter exists, and q_star is the limit member on that face",)
    q_star = mp.pprime
    objective = kl_bar(Pdata, q_star).value
    return FitReport(
        estimator="mle",
        q_star=q_star,
        theta=mp.coefficients if mp.attained else None,
        objective=objective,
        cross=_cross_table(Pdata, q_star, ctx),
        trajectory={"starts": 1, "converged": converged},
        notes=notes,
    )


def _member(fam: ExpFamily, theta: np.ndarray, off: np.ndarray | None = None) -> Dist:
    """The member at ``theta``, with no mass on the atoms ``off`` (a face of the closure)."""
    return Dist(fam.space, _normalized(np.log(fam.base.p) + theta @ fam.psi.values, off))


def _normalized(logw: np.ndarray, off: np.ndarray | None) -> np.ndarray:
    """exp(``logw``) scaled to sum to one along the last axis, zero on the atoms ``off``.

    Overwrites ``logw``.
    """
    if off is not None:
        logw[off] = -math.inf
    logw -= np.max(logw, axis=-1, keepdims=True)
    w = np.exp(logw, out=logw)
    return w / w.sum(axis=-1, keepdims=True)


def _mean_gradient(fam: ExpFamily, member: Dist, v: np.ndarray) -> np.ndarray:
    """d/dtheta E_member[v], v held fixed: Cov(psi, v).

    A 2-D ``v`` gives one column per row.
    """
    c = member.p * (v - (v @ member.p)[..., None])
    return fam.psi.values @ c.T


def _mean_hessian(fam: ExpFamily, member: Dist, v: np.ndarray) -> np.ndarray:
    """d^2/dtheta^2 E_member[v], v held fixed: E_q[(psi - E psi)(psi - E psi)^T (v - E v)]."""
    psi = fam.psi.values
    centered = psi - (psi @ member.p)[:, None]
    c = member.p * (v - float(v @ member.p))
    return (centered * c) @ centered.T


def _identifiable(fam: ExpFamily, off: np.ndarray | None) -> np.ndarray:
    """Orthonormal basis of the parameter directions that move the member.

    The others (those along which psi is constant, a face's normals) are idle.
    """
    psi = fam.psi.values
    if off is not None:
        psi = psi[:, ~off]
    basis, sing, _ = np.linalg.svd(psi - psi[:, :1], full_matrices=False)
    return basis[:, sing > sing[0] * max(psi.shape) * np.finfo(float).eps]


def _newton_directions(grad: np.ndarray, hess: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Levenberg-Marquardt steps -(H + mu I)^-1 grad within the span of ``basis``,
    one per row of ``grad`` (and matrix of ``hess``).

    mu is 0 where H is positive definite there. Otherwise (negative
    curvature, a flat valley) it lifts the least eigenvalue to ||grad||,
    so that no direction steps further than unit length.
    """
    g = grad @ basis
    lam, vecs = np.linalg.eigh(basis.T @ hess @ basis)
    if lam.shape[1] == 0:
        return np.zeros_like(grad)
    floor = 64.0 * np.finfo(float).eps * lam.shape[1] * np.maximum(np.abs(lam).max(axis=1), 1e-300)
    mu = np.where(lam[:, 0] > floor, 0.0, np.sqrt(np.einsum("ij,ij->i", g, g)) - lam[:, 0])
    denom = lam + mu[:, None]
    coef = np.divide(np.einsum("mji,mj->mi", vecs, g), denom, out=np.zeros_like(lam), where=denom > 0.0)
    return -(np.einsum("mij,mj->mi", vecs, coef) @ basis.T)


def _rounding(psi: np.ndarray, normal: np.ndarray) -> float:  # of normal . (psi_i - psi_j)
    return 8.0 * sum(psi.shape) * np.finfo(float).eps * float(np.abs(normal) @ np.abs(psi).max(axis=1))


def _faces(psi: np.ndarray, theta: np.ndarray, u: np.ndarray, off: np.ndarray | None):
    """Masks of the atoms off each certified face that ``theta`` heads to, top face first.

    ``u`` is theta . psi, whose spread over the free atoms exceeds
    ``FACE_GAP``. The atoms split at a gap above ``FACE_GAP`` in it, and
    the split is a face of the hull of the psi_i,
    so the members along its normal tend to the member with no mass off it.
    This also sees faces reached by damped or turning steps.
    """
    free = np.arange(u.size) if off is None else np.flatnonzero(~off)
    top = psi[:, free[np.argmax(u[free])]]
    for on, _ in face_splits(theta, u, free, psi, top, lambda normal: _rounding(psi, normal)):
        yield ~np.isin(np.arange(u.size), on)


def _crawled_face(fam: ExpFamily, trail: list, d: np.ndarray, off: np.ndarray | None):
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
        psi = fam.psi.values
        u = d @ psi
        if off is not None:
            u[off] = -math.inf
        rest = u < u.max() - _rounding(psi, d)  # the atoms off the exposed face
        m0, m1, m2 = (float(p[rest].sum()) for p, _ in trail)
        first, second = trail[1][1], trail[2][1]
        if 0.0 < m1 <= 0.5 * m0 and m2 <= 0.5 * m1 and first - second <= m2 * second:
            yield rest


@lru_cache(maxsize=64)
def _start_points(seed: int, dim: int, starts: int) -> np.ndarray:
    """The descent's start points, one per row: the origin, then seeded standard normals.

    Cached and read-only: spawning and seeding a generator per start costs
    more than a pass of the descent.
    """
    theta = np.zeros((starts, dim))
    for row, child in zip(theta[1:], np.random.SeedSequence([seed, dim]).spawn(starts - 1)):
        row[:] = np.random.default_rng(child).normal(0.0, 1.0, size=dim)
    theta.setflags(write=False)
    return theta


def _multistart_descend(fam: ExpFamily, evaluate, cfg: FitConfig, value_floor: float = -math.inf):
    """Seeded multistart damped Newton descent on the objective that ``evaluate`` gives.

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

    The starts advance in lockstep: theta is one (starts, dim) array, and
    each pass takes one iteration of every start still descending. Their
    array work is stacked: the members' log-weights, the finiteness and
    gradient tests, the ``FACE_GAP`` spread of theta . psi, the directions
    (one eigendecomposition of a stack of Hessians per face) and the
    slopes; the line search backtracks in lockstep, each start with its
    own step length. Each start still makes its own evaluations, with the
    arguments and in the order it would make them alone, so its trajectory
    is the one it would take alone (with several parameters, up to the
    rounding of the stacked products); the only links between starts are the
    first start's first evaluation, which runs before any other start's,
    and whatever ``evaluate`` caches per member.

    ``evaluate(member, base=None, step=None, exact=True)`` returns (value,
    gradient, Hessian, exact) at ``member``, which is ``base`` moved by the
    parameter ``step`` where those are given: the first point of each start
    after the first, from the first start's, and the line search's trial
    points, from the current member. Only the trial points pass ``exact``
    false, and only they may come back inexact; face members and
    re-evaluations pass the member alone. The line search backtracks, and a
    start stops, only from an exact evaluation: where a trial fails the
    Armijo test against an inexact value, or the gradient test or a stall
    would stop the start on one, the current member is evaluated again and
    the start goes on from there; a start that reaches ``cfg.max_iters``
    ends on such an evaluation.

    Returns ((theta, off, member) of the best start, total iterations,
    per-start values, distinct, starts run to ``cfg.max_iters``); ``off``
    masks the atoms off the face the best start ended on, or is None.
    Among near-equal optima the lexicographically smallest parameter
    wins, which keeps reports reproducible when the objective has flat
    stretches; ``distinct`` is true when two of them differ by more than
    their remaining Newton steps and rounding, in the directions that
    move the member.
    """
    dim, starts = fam.psi.k, cfg.starts
    theta = _start_points(int(cfg.seed), dim, starts).copy()
    psi = fam.psi.values
    log_base = np.log(fam.base.p)
    off = np.zeros((starts, fam.space.n), dtype=bool)  # the atoms off each start's face
    face = [None] * starts  # off[i].tobytes() once start i is on a face
    bases = {None: _identifiable(fam, None)}  # by face

    def members(rows, thetas):  # at the rows of thetas, on the faces of the starts ``rows``
        logw = log_base + thetas @ psi
        return [Dist(fam.space, p) for p in _normalized(logw, off[rows] if any(face) else None)]

    def directions(rows):  # one stacked solve per face that the starts ``rows`` are on
        groups = {}
        for i in rows:
            groups.setdefault(face[i], []).append(i)
        for key, at in groups.items():
            at = np.array(at)
            d[at] = _newton_directions(grad[at], hess[at], bases[key])

    val, exact = [math.nan] * starts, [True] * starts
    grad, hess = np.empty((starts, dim)), np.empty((starts, dim, dim))

    def settle(i):  # evaluate start i's current member exactly
        val[i], grad[i], hess[i], exact[i] = evaluate(member[i])

    member = members(slice(None), theta)
    settle(0)
    for i in range(1, starts):
        val[i], grad[i], hess[i], exact[i] = evaluate(member[i], member[0], theta[i] - theta[0])
    trail = [[(m.p, 0.0)] for m in member]  # members joined by the last full Newton steps
    tried = [set() for _ in range(starts)]
    d = np.zeros((starts, dim))  # each start's last Newton direction
    iters = [0] * starts
    rows = list(range(starts))  # the starts still descending
    eps = np.finfo(float).eps
    for _ in range(cfg.max_iters):
        if not rows:
            break
        finite = np.isfinite(grad).all(axis=1)
        u = theta @ psi
        wide = np.where(off, -math.inf, u).max(axis=1) - np.where(off, math.inf, u).min(axis=1) > FACE_GAP
        live = []
        for i in rows:
            iters[i] += 1
            if not (math.isfinite(val[i]) and val[i] > value_floor and finite[i]):
                continue
            live.append(i)
            off_i = None if face[i] is None else off[i]
            faces = _faces(psi, theta[i], u[i], off_i) if wide[i] else ()
            for face_off in itertools.chain(_crawled_face(fam, trail[i], d[i], off_i), faces):
                if face_off.tobytes() in tried[i]:
                    continue
                tried[i].add(face_off.tobytes())
                out = evaluate(on := _member(fam, theta[i], face_off))
                if out[0] <= val[i]:
                    off[i], face[i], member[i], trail[i] = face_off, face_off.tobytes(), on, [(on.p, 0.0)]
                    if face[i] not in bases:
                        bases[face[i]] = _identifiable(fam, face_off)
                    val[i], grad[i], hess[i], exact[i] = out
                    break

        gmax = np.abs(grad).max(axis=1)
        rows = []
        for i in live:
            small = gmax[i] <= cfg.tol
            if small and not exact[i]:
                settle(i)
                small = np.abs(grad[i]).max() <= cfg.tol
            if not small:
                rows.append(i)
        if not rows:
            continue

        directions(rows)
        at = np.array(rows)
        dr = d[at]
        slope = np.einsum("ij,ij->i", grad[at], dr).tolist()
        length = np.sqrt(np.einsum("ij,ij->i", dr, dr)).tolist()
        slack = [8.0 * eps * (1.0 + abs(val[i])) for i in rows]
        s, out, new = [1.0] * len(rows), [None] * len(rows), [None] * len(rows)
        search = list(range(len(rows)))  # positions in rows still backtracking
        while search:
            at = np.array([rows[j] for j in search])
            step = np.array([s[j] for j in search])[:, None] * d[at]
            cand = theta[at] + step
            for j, i, m, st, pt in zip(search, at, members(at, cand), step, cand):
                out[j] = evaluate(m, member[i], st, exact=False)
                new[j] = m, pt
            back = []
            for j, i in zip(search, at):
                if not out[j][0] <= val[i] + 1e-4 * s[j] * slope[j] + slack[j]:
                    s[j] = 0.5 * s[j] if exact[i] else 0.0  # backtrack from exact values only
                    if s[j] > 1e-14:
                        back.append(j)
                    else:
                        out[j] = None  # no acceptable step
            search = back

        descending = []
        for j, i in enumerate(rows):
            if out[j] is None:  # stop where exact, else evaluate exactly and go on
                if not exact[i]:
                    settle(i)
                    descending.append(i)
                continue
            stalled = not out[j][0] < val[i]
            member[i], theta[i] = new[j]
            val[i], grad[i], hess[i], exact[i] = out[j]
            trail[i] = (trail[i][-2:] if s[j] == 1.0 else []) + [(member[i].p, length[j])]
            if stalled:
                # The step is exact to the value's rounding: nothing left to gain.
                if exact[i]:
                    continue
                settle(i)
            descending.append(i)
        rows = descending
    capped = len(rows)
    for i in range(starts):
        if not exact[i]:
            settle(i)

    finite = np.isfinite(grad).all(axis=1)
    directions(np.flatnonzero(finite).tolist())
    step = np.where(finite, np.linalg.norm(d, axis=1), math.inf)  # of the Newton step left at the end
    best_val = min(val)
    contenders = sorted((i for i in range(starts) if val[i] <= best_val + 1e-10), key=lambda i: tuple(theta[i]))
    best = contenders[0]
    distinct = any(face[i] != face[best] for i in contenders)
    if not distinct:  # apart by more than their steps left and rounding, in the directions that move q
        gap = np.linalg.norm((theta[contenders] - theta[best]) @ bases[face[best]], axis=1)
        size = np.linalg.norm(theta[contenders], axis=1)
        rounding = 64.0 * eps * dim * (1.0 + size + size[0])
        distinct = not np.all(gap <= step[contenders] + step[best] + rounding)
    best_off = None if face[best] is None else off[best].copy()
    return (theta[best].copy(), best_off, member[best]), sum(iters), val, distinct, capped


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
        mp = restricted_div_primal(builtin("kl"), Pdata, uniform, LinearBall(phi, 2, math.inf),
                                   PrimalConfig(tol=1e-10))
        q_star, theta = mp.pprime, mp.coefficients if mp.attained else None
        trajectory = {"starts": 1, "converged": mp.status == "converged"}
        notes = ("maximum entropy representative of the moment-matched face",)
        if not mp.attained:
            notes += ("data phi-means lie on a face of the features' hull: no tilt of the "
                      "uniform distribution matches them, and q_star is the limit on that face",)
    else:
        def evaluate(member, base=None, step=None, exact=True):  # exact everywhere
            d = target - feature_means(member, phi)  # the gap, whose Jacobian is -J, J = Cov(phi, psi)
            jac_t = _mean_gradient(fam, member, phi.values)
            hess = jac_t @ jac_t.T - _mean_hessian(fam, member, d @ phi.values)
            return 0.5 * float(d @ d), -jac_t @ d, hess, True

        (theta, off, q_star), iters, per_start, distinct, capped = _multistart_descend(
            fam, evaluate, cfg, value_floor=1e-24)
        theta = theta if off is None else None
        trajectory = {"starts": cfg.starts, "iterations": iters, "per_start": per_start}
        notes = _descent_notes(off, distinct, capped, cfg)
    return FitReport(
        estimator="gmm",
        q_star=q_star,
        theta=theta,
        objective=float(np.linalg.norm(target - feature_means(q_star, phi))),
        cross=_cross_table(Pdata, q_star, ctx),
        trajectory=trajectory,
        notes=notes,
    )


def _descent_notes(off: np.ndarray | None, distinct: bool, capped: int, cfg: FitConfig) -> tuple[str, ...]:
    """Notes of a fit by :func:`_multistart_descend`, from what it returns."""
    notes = ()
    if distinct:
        notes += ("multiple near-optimal parameters; lexicographically smallest reported",)
    if off is not None:
        notes += ("the descent ran off to a face of the family's closure: q_star is the limit "
                  "member on that face, no worse than the parameters the descent reached, and "
                  "has no parameter",)
    if capped == cfg.starts:
        # The reported theta then moves with the cap.
        notes += (f"every start ran to max_iters={cfg.max_iters}; theta is where the "
                  "descent stopped, not a located minimiser",)
    return notes


def _envelope(fam: ExpFamily, feats: np.ndarray, target: np.ndarray, radius: float, member: Dist,
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
    (z' - z) = L_t - C K^+ L_z, z' the stepped iterate. ``a`` is then the
    coefficients of z', on the sphere when the step ends there. The envelope
    Hessian is L_tt + C K^+ C^T, with C = -L_tz and K = -L_zz the inner
    block E_q[f*''(h) (phi, 1)(phi, 1)^T] (the covariance that the primal's
    ``moments`` forms, before the intercept is eliminated): the Schur
    complement of the joint KKT matrix in (theta, z). ``dz`` = -K^+ C^T, its
    rows for a, is the first-order move of the inner optimum with theta.
    When the ball's multiplier lam = grad_a L . a / ||a||^2 is positive, K
    gains lam on the a-block and is restricted to the sphere's tangent
    space. Atoms pinned off an inner face drop out, as f*' = f*'' = 0 there,
    and K^+ leaves out the face normal along which the inner objective is
    flat.
    """
    fs, slope, curv = conjugate
    if dh is not None:
        fs, slope = fs + slope * dh, slope + curv * dh
    p = member.p
    psi = fam.psi.values
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
    radius: float,
    cfg: FitConfig | None = None,
) -> FitReport:
    """Adversarial fit: minimize the ball-restricted divergence.

    On the full simplex the minimum, 0, is attained wherever the phi-means
    match (E_data[h] = E_q[h] and h - f*(h) <= f(1) = 0): the fit is
    :func:`fit_gmm`'s member, scored by one exact inner solve. On a tilt
    family the outer landscape is generally nonconvex, so the seeded
    multistart Newton descent of :func:`_multistart_descend` is used. For
    a smooth generator it takes joint steps in the parameters theta and
    the discriminator z = (a, b). Its evaluation hook starts from
    the base member's z moved to first order with theta, else from where
    the member's last joint step left z. An exact inner solve (residual at
    most ``INNER_TOL``) gives the value, Danskin's gradient and the
    envelope Hessian (:func:`_envelope`); at a line search's trial point,
    one inner Newton step from the moved z (:func:`~fdual.primal.newton_step`)
    gives them instead, with value and corrected gradient exact to second
    order. Exact solves stay at each start's first point, at face trials
    and wherever a start would stop; each distinct member is solved
    exactly once per fit, and the report reuses the solve at ``q_star``.
    Only a smooth generator's solves leave a z to move, so under total
    variation, which has no f*'' for the joint step, every evaluation is
    an exact solve, and only L_tt enters its Hessian. When no
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
    _require_same_space(Pdata, phi)
    spec = LinearBall(phi, 2, radius)
    inner_cfg = PrimalConfig(tol=INNER_TOL)
    if isinstance(fam, FullSimplex):
        gmm = fit_gmm(fam, Pdata, phi)
        rep = restricted_div_primal(g, Pdata, gmm.q_star, spec, inner_cfg)
        trajectory = {**gmm.trajectory, "inner_solves": 1, "inner_steps": rep.iterations,
                      "inner_status": rep.status}
        note = "the moment-matched face is optimal: the restricted divergence is 0 at each of its members"
        return replace(gmm, estimator="fgan", objective=rep.value, cross={**gmm.cross, "fgan": rep.value},
                       trajectory=trajectory, notes=gmm.notes + (note,), pprime=rep.pprime)
    dim = fam.psi.k
    r = float(spec.radius)
    feats = np.vstack([phi.values, np.ones(phi.space.n)])
    target = np.append(feature_means(Pdata, phi), 1.0)
    solved = {}  # member bytes -> (inner report, (value, gradient, Hessian, True))
    joint = {}  # member bytes -> (inner iterate, its move with theta) of the last evaluation there
    counts = {"inner_solves": 0, "inner_steps": 0}

    def evaluate(member, base=None, step=None, exact=True):
        key = member.p.tobytes()
        if key in solved:
            return solved[key][1]
        state = None if base is None else joint.get(base.p.tobytes())
        start = joint.pop(key, (None,))[0]  # where this member's last joint step left z
        if state is not None:  # the base's z, moved to first order with theta
            start = project_ball(state[0] + state[1] @ step, r)
            if not exact:
                value, stepped, conjugate, dh = newton_step(g, Pdata, member, phi, r, start)
                counts["inner_steps"] += 1
                grad, hess, dz = _envelope(fam, feats, target, r, member, stepped, conjugate, dh)
                joint[key] = stepped, dz
                return value, grad, hess, False
        rep = restricted_div_primal(g, Pdata, member, spec, inner_cfg, start=start)
        counts["inner_solves"] += 1
        counts["inner_steps"] += rep.iterations
        if rep.h_opt is None:  # unbounded: no gradient
            out = rep.value, np.full(dim, math.nan), np.full((dim, dim), math.nan), True
        elif rep.conjugate is None:
            fs = np.zeros(member.p.size)
            on = member.p > 0.0
            fs[on] = g.fstar_vec(rep.h_opt.values[on])
            out = rep.value, -_mean_gradient(fam, member, fs), -_mean_hessian(fam, member, fs), True
        else:
            grad, hess, dz = _envelope(fam, feats, target, r, member, rep.coefficients, rep.conjugate())
            out = rep.value, grad, hess, True
            if rep.attained:
                joint[key] = rep.coefficients, dz
        solved[key] = rep, out
        return out

    (theta, off, q_star), iters, per_start, distinct, capped = _multistart_descend(fam, evaluate, cfg)
    rep = solved[q_star.p.tobytes()][0]
    return FitReport(
        estimator="fgan",
        q_star=q_star,
        theta=theta if off is None else None,
        objective=rep.value,
        cross={**_cross_table(Pdata, q_star, CrossContext(phi=phi)), "fgan": rep.value},
        trajectory={
            "starts": cfg.starts,
            "iterations": iters,
            "per_start": per_start,
            "inner_status": rep.status,
            **counts,
        },
        notes=_descent_notes(off, distinct, capped, cfg),
        pprime=rep.pprime,
    )
