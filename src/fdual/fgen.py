"""Catalog of divergence generators and their convex conjugates.

A generator is a convex, lower semi-continuous ``f`` with ``f(1) = 0``
that is infinite on the negative axis. The conjugate
``f*(t) = sup_{x >= 0} (x*t - f(x))`` is supplied in closed form per
generator; the nonnegativity restriction matters, because it flattens
or shifts the textbook conjugates (for instance the chi-square
conjugate is constant -1 below t = -2, where the unrestricted optimum
would be negative). Two structural facts hold for every catalog entry
and are enforced by :func:`check_generator`:

* ``f*`` is non-decreasing (because ``f`` is infinite left of zero);
* ``sup_t (t - f*(t)) = 0`` (because ``f(1) = 0``).

Closed-form conjugates used here, all derived under ``x >= 0``, with
the second derivative of each smooth conjugate:

==================  ===========================  ===============================  ====================
name                f(x), x >= 0                 f*(t)                            f*''(t)
==================  ===========================  ===============================  ====================
kl                  x ln x                       e^(t-1)                          e^(t-1)
reverse_kl          -ln x                        -1 - ln(-t)   for t < 0          1 / t^2
js_gan              x ln x - (x+1) ln((x+1)/2)   -ln(2 - e^t)  for t < ln 2       2 e^t / (2 - e^t)^2
pearson_chi2        (x - 1)^2                    t + t^2/4 for t >= -2, else -1   1/2 [t > -2]
squared_hellinger   (sqrt(x) - 1)^2              t / (1 - t)   for t < 1          2 / (1 - t)^3
total_variation     |x - 1| / 2                  max(t, -1/2)  for t <= 1/2       none (kink at -1/2)
==================  ===========================  ===============================  ====================

Total variation's conjugate has kinks, so its ``smoothing`` gives, for
mu > 0, the generator whose conjugate is
``-1/2 + mu ln(1 + e^((t + 1/2)/mu)) + mu e^((t - 1/2)/mu)`` (see
:func:`smoothed_total_variation`).

``js_gan`` is the classic adversarial-game generator
``x ln x - (x+1) ln(x+1)`` normalized by the affine offset
``(x+1) ln 2`` so that ``f(1) = 0``; the induced divergence equals
twice the Jensen-Shannon divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownGenerator, ValidationError
from .optim1d import newton_root_nonincreasing

__all__ = [
    "FGenerator",
    "CheckEntry",
    "CheckReport",
    "builtin",
    "builtin_names",
    "check_generator",
    "conjugate_sup",
    "smoothed_total_variation",
]

LN2 = math.log(2.0)
# Box and tolerance of the numeric suprema in :func:`check_generator`, and its grids.
_SUP_CAP = 1e3
_SUP_TOL = 1e-10
_GRID_X_MAX = 10.0
_GRID_T_LO = -10.0
_GRID_T_HI = 3.0
_GRID_POINTS = 201

VecEval = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FGenerator:
    """A divergence generator with evaluable ``f`` and conjugate ``f*``.

    The vectorized callables return one float array, +infinity outside
    the domain (neither ``f`` nor ``f*`` ever takes the value
    -infinity). ``fstar_prime_vec`` is a non-decreasing
    subgradient selection of ``f*``, valid wherever ``f*`` is finite,
    and ``f_prime`` likewise for ``f`` on the open positive axis.
    ``fstar_second_vec`` is the second derivative of ``f*`` (Pearson's
    one-sided at its kink t = -2); it is ``None`` when ``f*`` has kinks.
    ``smoothing``, given where ``f*`` has kinks, maps mu > 0 to a
    generator with a smooth conjugate within mu (1 + ln 2) of ``f*``.
    """

    name: str
    f_vec: VecEval
    fstar_vec: VecEval
    fstar_prime_vec: Callable[[np.ndarray], np.ndarray]
    f_prime_vec: Callable[[np.ndarray], np.ndarray]
    fstar_domain_upper: float
    fstar_domain_closed: bool
    fprime_at_infinity: float
    f_at_zero: float
    fstar_second_vec: Callable[[np.ndarray], np.ndarray] | None = None
    smoothing: Callable[[float], "FGenerator"] | None = None

    @property
    def conjugate_smooth(self) -> bool:
        """False when f* has kinks, where the solvers work on its ``smoothing``."""
        return self.fstar_second_vec is not None

    def f(self, x: float) -> float:
        return float(self.f_vec(np.array([float(x)]))[0])

    def fstar(self, t: float) -> float:
        return float(self.fstar_vec(np.array([float(t)]))[0])

    def f_prime(self, x: float) -> float:
        return float(self.f_prime_vec(np.array([float(x)]))[0])

    def fstar_box_upper(self, cap: float, margin: float = 1e-9) -> float:
        """Largest abscissa <= cap at which ``f*`` may be evaluated.

        Open domain boundaries are backed off by ``margin`` so that the
        returned point is strictly feasible.
        """
        up = self.fstar_domain_upper
        if math.isinf(up):
            return cap
        return min(cap, up if self.fstar_domain_closed else up - margin)


def _mask_eval(fun):
    """Wrap a raw vector evaluator, which returns +inf outside the domain:
    it gets float input and raises no warnings from the branches it masks."""

    def wrapped(x: np.ndarray):
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            return fun(x)

    return wrapped


def _kl() -> FGenerator:
    def f(x):
        out = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
        return np.where(x < 0, np.inf, out)

    def fstar(t):
        return np.exp(t - 1.0)

    return FGenerator(
        name="kl",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=lambda t: np.exp(np.minimum(t, 700.0) - 1.0),
        f_prime_vec=lambda x: np.log(x) + 1.0,
        fstar_domain_upper=math.inf,
        fstar_domain_closed=False,
        fprime_at_infinity=math.inf,
        f_at_zero=0.0,
        fstar_second_vec=lambda t: np.exp(np.minimum(t, 700.0) - 1.0),
    )


def _reverse_kl() -> FGenerator:
    def f(x):
        return np.where(x > 0, -np.log(np.where(x > 0, x, 1.0)), np.inf)

    def fstar(t):
        return np.where(t < 0, -1.0 - np.log(np.where(t < 0, -t, 1.0)), np.inf)

    return FGenerator(
        name="reverse_kl",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=lambda t: -1.0 / np.minimum(t, -1e-300),
        f_prime_vec=lambda x: -1.0 / x,
        fstar_domain_upper=0.0,
        fstar_domain_closed=False,
        fprime_at_infinity=0.0,
        f_at_zero=math.inf,
        fstar_second_vec=lambda t: (1.0 / np.minimum(t, -1e-300)) ** 2,
    )


def _js_gan() -> FGenerator:
    def f(x):
        xlogx = np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0)
        out = xlogx - (x + 1.0) * np.log((x + 1.0) / 2.0)
        return np.where(x < 0, np.inf, out)

    def fstar(t):
        # -ln(2 - e^t) = -ln 2 - ln(-expm1(t - ln 2)); cancellation-free
        # near the open boundary t -> ln 2.
        u = np.expm1(t - LN2)
        return np.where(t < LN2, -LN2 - np.log(np.where(u < 0, -u, 1.0)), np.inf)

    def fstar_prime(t):
        d = t - LN2
        # Clamp away from zero: right at the open boundary expm1
        # underflows and the ratio would lose its sign.
        u = np.minimum(np.expm1(d), -1e-300)
        return -np.exp(d) / u

    def f_prime(x):
        return np.log(x) - np.log((x + 1.0) / 2.0)

    return FGenerator(
        name="js_gan",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=fstar_prime,
        f_prime_vec=f_prime,
        fstar_domain_upper=LN2,
        fstar_domain_closed=False,
        fprime_at_infinity=LN2,
        f_at_zero=LN2,
        fstar_second_vec=lambda t: np.exp(t - LN2) / np.minimum(np.expm1(t - LN2), -1e-300) ** 2,
    )


def _pearson_chi2() -> FGenerator:
    def f(x):
        return np.where(x < 0, np.inf, (x - 1.0) ** 2)

    def fstar(t):
        # Unrestricted optimum x = 1 + t/2 is feasible only for t >= -2;
        # below that the supremum sits at x = 0 with value -1.
        return np.where(t >= -2.0, t + 0.25 * t * t, -1.0)

    return FGenerator(
        name="pearson_chi2",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=lambda t: np.maximum(0.0, 1.0 + 0.5 * t),
        f_prime_vec=lambda x: 2.0 * (x - 1.0),
        fstar_domain_upper=math.inf,
        fstar_domain_closed=False,
        fprime_at_infinity=math.inf,
        f_at_zero=1.0,
        fstar_second_vec=lambda t: np.where(t > -2.0, 0.5, 0.0),
    )


def _squared_hellinger() -> FGenerator:
    def f(x):
        return np.where(x < 0, np.inf, (np.sqrt(np.where(x < 0, 0.0, x)) - 1.0) ** 2)

    def fstar(t):
        return np.where(t < 1.0, t / (1.0 - t), np.inf)

    return FGenerator(
        name="squared_hellinger",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=lambda t: 1.0 / np.maximum(1.0 - t, 1e-300) ** 2,
        f_prime_vec=lambda x: 1.0 - 1.0 / np.sqrt(x),
        fstar_domain_upper=1.0,
        fstar_domain_closed=False,
        fprime_at_infinity=1.0,
        f_at_zero=1.0,
        fstar_second_vec=lambda t: 2.0 / np.maximum(1.0 - t, 1e-300) ** 3,
    )


def _total_variation() -> FGenerator:
    def f(x):
        return np.where(x < 0, np.inf, 0.5 * np.abs(x - 1.0))

    def fstar(t):
        return np.where(t <= 0.5, np.maximum(t, -0.5), np.inf)

    return FGenerator(
        name="total_variation",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        # Right-derivative selection at the kink t = -1/2.
        fstar_prime_vec=lambda t: np.where(t >= -0.5, 1.0, 0.0),
        f_prime_vec=lambda x: np.where(x > 1.0, 0.5, np.where(x < 1.0, -0.5, 0.0)),
        fstar_domain_upper=0.5,
        fstar_domain_closed=True,
        fprime_at_infinity=0.5,
        f_at_zero=0.5,
        smoothing=smoothed_total_variation,
    )


def smoothed_total_variation(mu: float) -> FGenerator:
    """Total variation with its conjugate smoothed by ``mu`` (Nesterov, 2005).

    f*_mu(t) = -1/2 + mu ln(1 + e^((t + 1/2)/mu)) + mu e^((t - 1/2)/mu)
    replaces the kink of max(t, -1/2) at -1/2 by a softplus and the
    domain wall at 1/2 by an exponential, so f*_mu'' > 0 everywhere. On
    t <= 1/2 it exceeds f* by at most mu (1 + ln 2). Its slope
    sigma(u) + e^(u - 1/mu), u = (t + 1/2)/mu, is inverted in closed form:
    with w = e^(u - 1/(2 mu)), w^2 + beta w - x = 0 for
    beta = (1 + e^(-1/mu) - x) e^(1/(2 mu)), and f_mu'(x) = mu ln w,
    evaluated in logs where beta or e^(1/mu) leave the float range. f_mu
    itself, the conjugate of f*_mu, is not normalized: f_mu(1) is about
    -2 mu e^(-1/(2 mu)).
    """
    if not mu > 0.0:
        raise ValidationError("smoothing needs mu > 0")

    def fstar(t):
        return -0.5 + mu * np.logaddexp(0.0, (t + 0.5) / mu) + mu * np.exp((t - 0.5) / mu)

    def fstar_prime(t):
        with np.errstate(over="ignore"):
            return np.exp(-np.logaddexp(0.0, -(t + 0.5) / mu)) + np.exp((t - 0.5) / mu)

    def fstar_second(t):
        u = (t + 0.5) / mu
        with np.errstate(over="ignore"):
            return (np.exp(-np.logaddexp(0.0, u) - np.logaddexp(0.0, -u)) + np.exp((t - 0.5) / mu)) / mu

    def f_prime(x):
        d = 1.0 + math.exp(-1.0 / mu) - x
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_beta = np.log(np.abs(d)) + 0.5 / mu
            # ell = ln(|beta| + sqrt(beta^2 + 4x)), with |beta| factored out where it is large.
            small = np.exp(np.minimum(log_beta, 0.0))
            ell = np.where(log_beta > 0.0,
                           log_beta + np.log1p(np.sqrt(1.0 + 4.0 * x * np.exp(-2.0 * np.maximum(log_beta, 0.0)))),
                           np.log(small + np.sqrt(small * small + 4.0 * x)))
            return mu * np.where(d >= 0.0, np.log(2.0 * x) - ell, ell - LN2)

    def f(x):
        t = f_prime(np.where(x > 0, x, 1.0))
        return np.where(x > 0, x * t - fstar(t), np.where(x == 0, 0.5, np.inf))

    return FGenerator(
        name="total_variation_smoothed",
        f_vec=_mask_eval(f),
        fstar_vec=_mask_eval(fstar),
        fstar_prime_vec=fstar_prime,
        f_prime_vec=f_prime,
        fstar_domain_upper=math.inf,
        fstar_domain_closed=False,
        fprime_at_infinity=math.inf,
        f_at_zero=0.5,
        fstar_second_vec=fstar_second,
    )


_BUILTINS: dict[str, Callable[[], FGenerator]] = {
    "kl": _kl,
    "reverse_kl": _reverse_kl,
    "js_gan": _js_gan,
    "pearson_chi2": _pearson_chi2,
    "squared_hellinger": _squared_hellinger,
    "total_variation": _total_variation,
}

_CACHE: dict[str, FGenerator] = {}


def builtin_names() -> tuple[str, ...]:
    return tuple(_BUILTINS)


def builtin(name: str) -> FGenerator:
    """Return a catalog generator by name.

    Raises :class:`UnknownGenerator` for names outside the catalog.
    """
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownGenerator(
            f"unknown generator {name!r}; available: {', '.join(_BUILTINS)}"
        ) from None
    if name not in _CACHE:
        _CACHE[name] = factory()
    return _CACHE[name]


# ---------------------------------------------------------------------------
# Self-check suite
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    worst: float
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    generator: str
    entries: tuple[CheckEntry, ...]
    notes: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def conjugate_sup(g: FGenerator, p: np.ndarray, q: np.ndarray, cap: float, tol: float):
    """Coordinatewise ``sup_t p_i t - q_i f*(t)`` over ``-cap <= t <= cap``, for q_i > 0.

    Returns ``(t, values)``. The box is cut to the domain of f* as by
    :meth:`FGenerator.fstar_box_upper`. The maximizer is the root of the
    non-increasing p_i - q_i f*'(t), and the seed t = f'(p_i / q_i) is
    that root for an exact conjugate pair. Where f* has kinks the seed
    is returned as it is (for total variation, the kink -1/2 when
    p_i < q_i and the domain's end 1/2 when p_i > q_i); otherwise
    bracketed Newton steps start from it, and ``tol`` bounds the last
    step. A finite seed outside the box widens that coordinate's box to
    reach it, so a maximizer beyond the cap is not cut to the box end.
    The values are evaluated exactly at t.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    with np.errstate(all="ignore"):
        seed = g.f_prime_vec(p / q)
    second = g.fstar_second_vec
    fin = np.isfinite(seed)
    lo = np.where(fin & (seed < -cap), seed, -cap)
    hi = np.where(fin & (seed > cap), seed, g.fstar_box_upper(cap))
    if second is None:
        t = np.clip(seed, lo, hi)
    else:
        t = newton_root_nonincreasing(lambda t: p - q * g.fstar_prime_vec(t), lambda t: q * second(t),
                                      seed, lo, hi, tol)
    return t, p * t - q * g.fstar_vec(t)


def check_generator(g: FGenerator) -> CheckReport:
    """Run the structural property battery for a generator.

    Checks, each reported as a pass/fail entry with its worst violation:
    exact normalization ``f(1) = 0``; midpoint convexity of ``f`` on the
    grid; monotonicity of ``f*``; the normalization identity
    ``sup_t (t - f*(t)) = 0`` within 1e-6; the Fenchel-Young inequality
    on the grid product within 1e-9; agreement of the numeric
    biconjugate with ``f`` within 1e-6 at interior grid points; and the
    slope of ``f`` at infinity against the declared limit. The supremum
    and the biconjugate are 1-D concave maximizations on [-1e3, 1e3]
    solved by :func:`conjugate_sup`, so they lean on ``f*'`` and
    ``f*''``. Its grids have 201 points, x on [0, 10] and t on [-10, 3]
    cut to the domain of ``f*``; a t grid left empty there (no catalog
    generator's) raises :class:`ValidationError`.
    """
    xs = np.linspace(0.0, _GRID_X_MAX, _GRID_POINTS)
    t_hi = g.fstar_box_upper(_GRID_T_HI)
    if not t_hi > _GRID_T_LO:
        raise ValidationError(f"t grid [{_GRID_T_LO}, {t_hi}] is empty in the domain of f* of {g.name}")
    ts = np.linspace(_GRID_T_LO, t_hi, _GRID_POINTS)

    entries: list[CheckEntry] = []

    f1 = g.f(1.0)
    entries.append(CheckEntry("normalization_f1", f1 == 0.0, abs(f1)))

    # Midpoint convexity over all grid pairs; pairs with an infinite
    # endpoint satisfy the inequality trivially. Both the midpoint and
    # the chord are symmetric in the pair, so i <= j covers every pair.
    fx = g.f_vec(xs)
    i, j = np.triu_indices(xs.size)
    fmid = g.f_vec(0.5 * (xs[i] + xs[j]))
    pair = np.isfinite(fx[i]) & np.isfinite(fx[j]) & np.isfinite(fmid)
    worst = float(np.max(fmid[pair] - 0.5 * (fx[i][pair] + fx[j][pair]), initial=-np.inf))
    entries.append(CheckEntry("convexity_midpoint", worst <= 1e-9, max(worst, 0.0)))

    fstar_t = g.fstar_vec(ts)
    if np.all(np.isfinite(fstar_t)):
        drops = fstar_t[:-1] - fstar_t[1:]
        worst = float(np.max(drops)) if drops.size else 0.0
    else:
        worst = math.inf
    entries.append(CheckEntry("fstar_nondecreasing", worst <= 1e-12, max(worst, 0.0)))

    one = np.ones(1)
    sup_val = float(conjugate_sup(g, one, one, _SUP_CAP, _SUP_TOL)[1][0])
    entries.append(
        CheckEntry("normalization_sup", abs(sup_val) <= 1e-6, abs(sup_val), f"sup={sup_val:.3e}")
    )

    # Fenchel-Young on the grid product; a pair with an infinite term has slack +inf.
    worst = float(np.min(fx[:, None] + fstar_t[None, :] - xs[:, None] * ts[None, :]))
    entries.append(CheckEntry("fenchel_young", worst >= -1e-9, max(-worst, 0.0)))

    # Numeric biconjugate at interior grid points where f is finite,
    # batched across slopes (one 1-D concave maximization per point).
    interior = xs[1:-1]
    f_int = g.f_vec(interior)
    dom = np.isfinite(f_int)
    slopes = interior[dom]
    if slopes.size:
        _, best = conjugate_sup(g, slopes, np.ones(slopes.shape), _SUP_CAP, _SUP_TOL)
        worst = float(np.max(np.abs(best - f_int[dom])))
    else:
        worst = 0.0
    entries.append(CheckEntry("biconjugate", worst <= 1e-6, worst))

    x_far = 1e6
    fv = g.f(x_far)
    slope = fv / x_far
    lim = g.fprime_at_infinity
    if math.isfinite(lim):
        dev = abs(slope - lim)
        ok = dev <= 0.05 * max(1.0, abs(lim))
        detail = f"grid slope {slope:.6g} vs limit {lim:.6g}"
    else:
        dev = 0.0
        ok = slope > 10.0
        detail = f"grid slope {slope:.6g}, limit symbolically infinite"
    entries.append(CheckEntry("slope_at_infinity", ok, dev, detail))

    notes: tuple[str, ...] = ()
    if g.name == "total_variation":
        notes = (
            "piecewise-linear generator: convexity is non-strict, so "
            "gradient-based solvers may stall on flat stretches",
        )
    return CheckReport(generator=g.name, entries=tuple(entries), notes=notes)
