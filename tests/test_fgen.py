import dataclasses
import math

import numpy as np
import pytest

from fdual.errors import UnknownGenerator, ValidationError
from fdual.extreal import NEG_INF, POS_INF, finite, scale_mass
from fdual.fgen import (
    FGenerator,
    GridSpec,
    builtin,
    builtin_names,
    check_generator,
    conjugate_sup,
    smoothed_total_variation,
)
from fdual.optim1d import newton_root_nonincreasing


ALL = list(builtin_names())


def test_catalog_names():
    assert set(ALL) == {
        "kl",
        "reverse_kl",
        "js_gan",
        "pearson_chi2",
        "squared_hellinger",
        "total_variation",
    }


def test_unknown_generator():
    with pytest.raises(UnknownGenerator):
        builtin("chisq")


def test_kl_normalization():
    g = builtin("kl")
    assert float(g.f(1.0)) == 0.0


def test_kl_conjugate_at_one():
    g = builtin("kl")
    assert float(g.fstar(1.0)) == pytest.approx(1.0, abs=1e-15)


def test_pearson_conjugate_flattens():
    g = builtin("pearson_chi2")
    # Grid-search oracle: sup_{x>=0} (-4x - (x-1)^2).
    xs = np.arange(0.0, 10.0, 1e-4)
    oracle = float(np.max(-4.0 * xs - (xs - 1.0) ** 2))
    val = float(g.fstar(-4.0))
    assert val == pytest.approx(-1.0, abs=1e-12)
    assert abs(val - oracle) <= 1e-6


@pytest.mark.parametrize("name", ALL)
def test_builtin_passes_checks(name):
    rep = check_generator(builtin(name))
    failing = [e.name for e in rep.entries if not e.passed]
    assert not failing, f"{name} failed {failing}"


def test_corrupted_generator_fails_normalization():
    g = builtin("kl")

    def bad_f(x):
        vals, fin = g.f_vec(x)
        return np.where(fin, vals + 0.1, vals), fin

    bad = FGenerator(
        name="bad",
        f_vec=bad_f,
        fstar_vec=g.fstar_vec,
        fstar_prime_vec=g.fstar_prime_vec,
        f_prime_vec=g.f_prime_vec,
        fstar_domain_upper=g.fstar_domain_upper,
        fstar_domain_closed=g.fstar_domain_closed,
        fprime_at_infinity=g.fprime_at_infinity,
        f_at_zero=g.f_at_zero,
    )
    rep = check_generator(bad)
    assert not rep.entry("normalization_f1").passed


def test_total_variation_domain_and_monotonicity():
    g = builtin("total_variation")
    assert g.fstar_domain_upper.is_finite and g.fstar_domain_upper.value == 0.5
    assert g.fstar_domain_closed
    rep = check_generator(g)
    assert rep.entry("fstar_nondecreasing").passed
    assert rep.notes  # non-strict convexity is flagged


def test_kl_conjugate_slack_strict_off_one():
    g = builtin("kl")
    ts = np.linspace(-10.0, 3.0, 401)
    vals, fin = g.fstar_vec(ts)
    assert np.all(fin)
    slack = vals - ts  # f*(t) - t >= 0 with equality only at t = 1
    assert np.min(slack) >= 0.0
    assert abs(ts[int(np.argmin(slack))] - 1.0) <= 0.05
    assert np.all(slack[np.abs(ts - 1.0) > 0.1] > 0.0)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("total_variation", 0.5),
        ("squared_hellinger", 1.0),
        ("js_gan", math.log(2.0)),
        ("reverse_kl", 0.0),
    ],
)
def test_slope_at_infinity_finite(name, expected):
    g = builtin(name)
    assert g.fprime_at_infinity.is_finite
    assert g.fprime_at_infinity.value == pytest.approx(expected, abs=1e-12)
    f_far = g.f(1e6)
    assert abs(f_far.value / 1e6 - expected) <= 0.05 * max(1.0, abs(expected))


@pytest.mark.parametrize("name", ["kl", "pearson_chi2"])
def test_slope_at_infinity_symbolic(name):
    g = builtin(name)
    assert g.fprime_at_infinity.is_pos_inf
    assert check_generator(g).entry("slope_at_infinity").passed


def test_conjugate_smoothness_flags():
    for name in ALL:
        g = builtin(name)
        assert g.conjugate_smooth is (name != "total_variation")
        assert (g.fstar_second_vec is not None) is g.conjugate_smooth


@pytest.mark.parametrize("name", [n for n in ALL if n != "total_variation"])
def test_fstar_second_matches_central_differences(name):
    # Interior grid of the conjugate domain, up to 0.05 short of an open
    # upper end; Pearson's one-sided kink at t = -2 is skipped.
    g = builtin(name)
    ts = np.linspace(-6.0, g.fstar_box_upper(3.0, margin=0.05), 301)
    if name == "pearson_chi2":
        ts = ts[np.abs(ts + 2.0) > 1e-3]
    step = 1e-6
    fd = (g.fstar_prime_vec(ts + step) - g.fstar_prime_vec(ts - step)) / (2.0 * step)
    second = g.fstar_second_vec(ts)
    assert np.all(second >= 0.0)
    assert np.max(np.abs(fd - second) / np.maximum(1.0, np.abs(second))) <= 1e-6


@pytest.mark.parametrize("mu", [0.1, 1e-3, 1e-6])
def test_smoothed_total_variation(mu):
    # f*_mu lies within mu (1 + ln 2) above max(t, -1/2) on t <= 1/2, its
    # second derivative matches central differences, and the closed-form
    # f_mu' inverts its slope, also where e^(-1/mu) underflows (mu <= 1e-3).
    g = smoothed_total_variation(mu)
    tv = builtin("total_variation")
    assert g.conjugate_smooth and tv.smoothing is smoothed_total_variation
    ts = np.linspace(-3.0, 0.5, 701)
    excess = g.fstar_vec(ts)[0] - tv.fstar_vec(ts)[0]
    assert np.all(excess >= -1e-15) and np.all(excess <= mu * (1.0 + math.log(2.0)) + 1e-15)
    ts = np.linspace(-0.5 - 10.0 * mu, 0.5 + 5.0 * mu, 301)
    step = 1e-6 * mu
    fd = (g.fstar_prime_vec(ts + step) - g.fstar_prime_vec(ts - step)) / (2.0 * step)
    second = g.fstar_second_vec(ts)
    assert np.max(np.abs(fd - second) / np.maximum(1.0 / mu, second)) <= 1e-4
    xs = np.array([1e-6, 0.1, 0.5, 0.9, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 3.0, 1e3])
    assert np.allclose(g.fstar_prime_vec(g.f_prime_vec(xs)), xs, rtol=1e-8 if mu >= 1e-3 else 1e-4)
    assert g.f_prime(0.0) == -math.inf and abs(g.f_prime(1.0)) <= mu


def test_conjugate_domain_is_slope_at_infinity():
    # sup dom f* coincides with lim f(x)/x for every catalog entry.
    for name in ALL:
        g = builtin(name)
        up, lim = g.fstar_domain_upper, g.fprime_at_infinity
        assert up.sign == lim.sign
        if up.is_finite:
            assert up.value == pytest.approx(lim.value, abs=1e-15)


def test_extreal_arithmetic():
    assert float(finite(2.0) + 3.0) == 5.0
    assert (POS_INF + finite(1.0)).is_pos_inf
    assert (NEG_INF + finite(1.0)).is_neg_inf
    with pytest.raises(ArithmeticError):
        POS_INF + NEG_INF
    assert float(scale_mass(0.0, POS_INF)) == 0.0
    assert scale_mass(0.5, POS_INF).is_pos_inf
    assert float(scale_mass(2.0, finite(3.0))) == 6.0
    assert finite(1.0) < POS_INF
    assert NEG_INF < finite(-1e308)


def test_grid_spec_override():
    rep = check_generator(builtin("kl"), GridSpec(x_max=5.0, x_points=101, t_lo=-8.0, t_hi=2.0, t_points=101))
    assert rep.ok


@pytest.mark.parametrize(
    "kwargs",
    [
        {"x_max": -1.0},
        {"x_max": 0.0},
        {"x_max": math.nan},
        {"x_points": 2},
        {"t_points": 1},
        {"t_lo": 5.0, "t_hi": 3.0},
        {"t_lo": 3.0, "t_hi": 3.0},
    ],
)
def test_grid_spec_rejects_vacuous_grids(kwargs):
    # Each of these grids used to pass every entry with worst 0, or to
    # report a bogus fstar_nondecreasing failure on a reversed t grid.
    with pytest.raises(ValidationError):
        GridSpec(**kwargs)


def test_check_generator_rejects_t_grid_outside_conjugate_domain():
    # Reverse KL's conjugate lives on t < 0, so this t grid is empty.
    with pytest.raises(ValidationError):
        check_generator(builtin("reverse_kl"), GridSpec(t_lo=0.5, t_hi=3.0))


def _full_matrix_midpoint_worst(g, xs):
    fx, fx_fin = g.f_vec(xs)
    mid = 0.5 * (xs[:, None] + xs[None, :])
    fmid, fmid_fin = g.f_vec(mid.ravel())
    rhs = 0.5 * (fx[:, None] + fx[None, :])
    both_fin = fx_fin[:, None] & fx_fin[None, :]
    viol = np.where(both_fin & fmid_fin.reshape(mid.shape), fmid.reshape(mid.shape) - rhs, -np.inf)
    return max(float(np.max(viol)), 0.0)


def _concave_on_the_right():
    # f(x) = (x - 1)^2 for x <= 1 and sqrt(x) - 1 beyond: not convex, so
    # the midpoint check has a positive worst value to reproduce.
    g = builtin("pearson_chi2")

    def f(x):
        return np.where(x <= 1.0, (x - 1.0) ** 2, np.sqrt(np.maximum(x, 0.0)) - 1.0), x >= 0.0

    return dataclasses.replace(g, name="not_convex", f_vec=f)


@pytest.mark.parametrize("grid", [GridSpec(), GridSpec(x_max=3.7, x_points=58, t_lo=-4.0, t_hi=0.5, t_points=9)])
def test_convexity_midpoint_matches_full_matrix(grid):
    xs = np.linspace(0.0, grid.x_max, grid.x_points)
    for g in [builtin(name) for name in ALL] + [_concave_on_the_right()]:
        rep = check_generator(g, grid)
        assert rep.entry("convexity_midpoint").worst == _full_matrix_midpoint_worst(g, xs), g.name
    assert not check_generator(_concave_on_the_right(), grid).entry("convexity_midpoint").passed


def _counting_generator(g):
    calls = {"fstar_prime_vec": 0, "fstar_second_vec": 0}

    def counted(name):
        fun = getattr(g, name)

        def wrapped(t):
            calls[name] += 1
            return fun(t)

        return wrapped

    fields = {name: counted(name) for name in calls if getattr(g, name) is not None}
    return dataclasses.replace(g, **fields), calls


def _random_masses(rng, n):
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n))
    return p, q


@pytest.mark.parametrize("name", [n for n in ALL if n != "total_variation"])
def test_conjugate_sup_from_the_slope_seed_needs_few_derivative_calls(name):
    # A count, not a timing: the seed f'(p/q) is the root up to rounding,
    # so one Newton iteration (one f*' and one f*'' call) settles it.
    g, calls = _counting_generator(builtin(name))
    rng = np.random.default_rng(17)
    cases = [_random_masses(rng, int(rng.integers(2, 9))) for _ in range(30)]
    slopes = np.linspace(0.0, 10.0, 201)[1:-1]
    cases.append((slopes, np.ones(slopes.shape)))
    for p, q in cases:
        for key in calls:
            calls[key] = 0
        t, vals = conjugate_sup(g, p, q, 1e3, 1e-12)
        assert sum(calls.values()) <= 3, (name, calls)
        closed = q * g.f_vec(p / q)[0]
        assert np.max(np.abs(vals - closed)) <= 1e-12 * max(1.0, float(np.max(np.abs(closed))))


@pytest.mark.parametrize("name", [n for n in ALL if n != "total_variation"])
def test_newton_root_from_bad_seeds_reaches_the_same_root(name):
    g = builtin(name)
    rng = np.random.default_rng(23)
    p, q = _random_masses(rng, 8)
    lo, hi, tol = -1e3, g.fstar_box_upper(1e3), 1e-10
    t_ref, _ = conjugate_sup(g, p, q, 1e3, tol)

    def d(t):
        return p - q * g.fstar_prime_vec(t)

    def slope(t):
        return q * g.fstar_second_vec(t)

    box_lo, box_hi = np.full(p.shape, lo), np.full(p.shape, hi)
    for seed in (np.full(p.shape, np.nan), box_lo, box_hi, np.zeros(p.shape)):
        t = newton_root_nonincreasing(d, slope, seed, box_lo, box_hi, tol)
        assert np.max(np.abs(t - t_ref)) <= tol, (name, seed[0])


def test_conjugate_sup_total_variation_returns_the_kink_and_the_domain_end():
    # f* = max(t, -1/2) on t <= 1/2 has no second derivative: p < q puts
    # the maximizer at the kink -1/2, p > q at the closed end 1/2, and the
    # values are |p - q| / 2. The seed f'(p/q) is that maximizer, so no
    # derivative of f* is evaluated.
    g, calls = _counting_generator(builtin("total_variation"))
    p = np.array([0.1, 0.3, 0.7, 0.9, 0.5])
    q = np.array([0.4, 0.6, 0.2, 0.5, 0.5])
    t, vals = conjugate_sup(g, p, q, 1e3, 1e-10)
    assert t.tolist() == [-0.5, -0.5, 0.5, 0.5, 0.0]
    assert np.max(np.abs(vals - 0.5 * np.abs(p - q))) <= 1e-15
    assert calls["fstar_prime_vec"] == 0
