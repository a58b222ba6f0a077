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
exponential tilt family over a full-support base; the outer descents
run on exact gradients. Every report carries the cross-table of all
three criteria at the fitted member, so the estimators can be
compared on equal footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discriminator import LinearBall
from .divergence import kl_bar
from .dual import moment_projection
from .errors import SupportViolation, ValidationError
from .extreal import ExtReal, POS_INF, finite
from .fgen import FGenerator, builtin
from .primal import PrimalConfig, restricted_div_primal
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
    if isinstance(fam, FullSimplex):
        if theta.shape != (fam.space.n,):
            raise ValidationError(f"simplex parameter needs shape ({fam.space.n},)")
        z = theta - np.max(theta)
        w = np.exp(z)
        return Dist(fam.space, w / w.sum())
    if theta.shape != (fam.psi.k,):
        raise ValidationError(f"tilt parameter needs shape ({fam.psi.k},)")
    logw = np.log(fam.base.p) + theta @ fam.psi.values
    logw -= np.max(logw)
    w = np.exp(logw)
    return Dist(fam.space, w / w.sum())


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


def _mean_gradient(fam: GeneratorFamily, member: Dist, v: np.ndarray) -> np.ndarray:
    """d/dtheta E_member[v], v held fixed: Cov(psi, v), or q (v - E_q v) for softmax."""
    c = member.p * (v - float(member.p @ v))
    return c if isinstance(fam, FullSimplex) else fam.psi.values @ c


def _multistart_descend(fun, dim: int, cfg: FitConfig, value_floor: float = -math.inf):
    """Seeded multistart descent on ``fun(theta) = (value, gradient)``.

    Keeps the best (value, theta) pair; among near-equal optima the
    lexicographically smallest parameter wins, which keeps reports
    reproducible when the objective has flat stretches. Also returns
    how many starts ran to ``cfg.max_iters`` without stopping.
    """
    rng_root = np.random.SeedSequence([int(cfg.seed), dim])
    children = rng_root.spawn(max(cfg.starts - 1, 0))
    starts = [np.zeros(dim)]
    for child in children:
        starts.append(np.random.default_rng(child).normal(0.0, 1.0, size=dim))

    results = []
    total_iters = 0
    capped = 0
    for theta0 in starts:
        theta = theta0.copy()
        val, grad = fun(theta)
        step = 1.0
        it = 0
        tiny_gains = 0
        for it in range(1, cfg.max_iters + 1):
            if not (math.isfinite(val) and val > value_floor and np.all(np.isfinite(grad))):
                break
            if float(np.max(np.abs(grad))) <= cfg.tol:
                break
            s = step
            while s > 1e-14:
                cand = theta - s * grad
                v_c, g_c = fun(cand)
                if v_c < val - 1e-4 * s * float(grad @ grad):
                    gain = val - v_c
                    theta, val, grad = cand, v_c, g_c
                    break
                s *= 0.5
            else:
                break
            # Objectives whose infimum is only approached along a ray
            # keep yielding vanishing gains; cut the march short.
            tiny_gains = tiny_gains + 1 if gain <= 1e-12 * max(1.0, abs(val)) else 0
            if tiny_gains >= 10:
                break
            step = min(s * 2.0, 8.0)
        else:
            capped += 1
        total_iters += it
        results.append((val, tuple(theta), theta))

    best_val = min(r[0] for r in results)
    contenders = [r for r in results if r[0] <= best_val + 1e-10]
    contenders.sort(key=lambda r: r[1])
    _, _, best_theta = contenders[0]
    distinct = len({r[1] for r in contenders}) > 1
    return best_theta, best_val, total_iters, [r[0] for r in results], distinct, capped


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
    Exponential families are fit by multistart descent on the squared
    gap, which is smooth in the tilt parameter.
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

    dim = family_dim(fam)

    def fun(theta):  # the gap's Jacobian is -Cov(phi, psi)
        member = family_member(fam, theta)
        d = target - feature_means(member, phi)
        return 0.5 * float(d @ d), -_mean_gradient(fam, member, d @ phi.values)

    theta, _, iters, per_start, distinct, _ = _multistart_descend(fun, dim, cfg, value_floor=1e-24)
    q_star = family_member(fam, theta)
    objective = float(np.linalg.norm(target - feature_means(q_star, phi)))
    notes = ()
    if distinct:
        notes = ("multiple near-optimal parameters; lexicographically smallest reported",)
    return FitReport(
        estimator="gmm",
        q_star=q_star,
        theta=theta,
        objective=objective,
        cross=_cross_table(Pdata, q_star, ctx, cfg.inner_tol),
        trajectory={"starts": cfg.starts, "iterations": iters, "per_start": per_start},
        notes=notes,
    )


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
    so seeded multistart descent is used; the inner discriminator
    problem is solved to high accuracy per evaluation (for a smooth
    generator on a 2-ball or an unconstrained coefficient set, by the
    primal's Newton solve), and by Danskin's theorem its optimal h*
    gives the gradient -Cov_member(psi, f*(h*)).
    """
    cfg = cfg or FitConfig()
    if not isinstance(radius, ExtReal):
        radius = POS_INF if math.isinf(float(radius)) else finite(float(radius))
    _require_same_space(Pdata, phi)
    dim = family_dim(fam)
    spec = LinearBall(phi, 2, radius)
    inner_cfg = PrimalConfig(tol=cfg.inner_tol)

    def fun(theta):  # Danskin: h* held fixed; f*(PIN) = -f(0) off a face
        member = family_member(fam, theta)
        rep = restricted_div_primal(g, Pdata, member, spec, inner_cfg)
        if rep.h_opt is None:  # unbounded: no gradient
            return float(rep.value), np.full(dim, math.nan)
        return float(rep.value), -_mean_gradient(fam, member, g.fstar_vec(rep.h_opt.values)[0])

    theta, val, iters, per_start, distinct, capped = _multistart_descend(fun, dim, cfg)
    q_star = family_member(fam, theta)
    rep = restricted_div_primal(g, Pdata, q_star, spec, inner_cfg)
    notes = ()
    if distinct:
        notes = ("multiple near-optimal parameters; lexicographically smallest reported",)
    if capped == len(per_start):
        # Typical when the objective has no minimiser and keeps falling
        # along a ray: the reported theta then moves with the cap.
        notes += (
            f"every start ran to max_iters={cfg.max_iters}; theta is where the "
            "descent stopped, not a located minimiser",
        )
    return FitReport(
        estimator="fgan",
        q_star=q_star,
        theta=theta,
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
    )

