import numpy as np
import pytest

from fdual.discriminator import LinearBall
from fdual.errors import TooManyFeatures, UnknownSuite
from fdual.extreal import finite
from fdual.fgen import builtin
from fdual.primal import restricted_div_primal
from fdual.space import FeatureMap, OutcomeSpace, make_dist
from fdual.verify import (
    SUITE_NAMES,
    brute_force_primal,
    duality_instance,
    run_suite,
)

KL = builtin("kl")


def test_brute_force_identical(two_point):
    _, _, Q, phi = two_point
    bf = brute_force_primal(KL, Q, Q, LinearBall(phi, 2, finite(1.0)), 1e-2)
    assert abs(bf.value) <= 1e-12


def test_brute_force_two_point(two_point):
    # Radius 2 contains the unconstrained optimum (|a*| = ln 3), so the
    # oracle approaches the full KL value as the grid refines.
    _, P, Q, phi = two_point
    bf = brute_force_primal(KL, P, Q, LinearBall(phi, 2, finite(2.0)), 1e-3)
    solver = restricted_div_primal(KL, P, Q, LinearBall(phi, 2, finite(2.0))).value
    assert bf.value == pytest.approx(0.143841, abs=1e-4)
    assert abs(bf.value - float(solver)) <= 1e-4
    assert bf.value <= float(solver) + 1e-12


def test_brute_force_refinement_monotone(two_point):
    _, P, Q, phi = two_point
    spec = LinearBall(phi, 2, finite(2.0))
    coarse = brute_force_primal(KL, P, Q, spec, 2e-3)
    fine = brute_force_primal(KL, P, Q, spec, 1e-3)
    assert fine.value >= coarse.value - 1e-12
    assert fine.error_bound < coarse.error_bound


def test_brute_force_feature_cap():
    space = OutcomeSpace.of_size(3)
    phi = FeatureMap(space, np.eye(3))
    P = make_dist(space, [1, 1, 1])
    with pytest.raises(TooManyFeatures):
        brute_force_primal(KL, P, P, LinearBall(phi, 2, finite(1.0)), 0.1)


def test_brute_force_agrees_within_bound():
    for i in (0, 1, 3):
        gen_name, P, Q, phi, radius = duality_instance(9, i)
        if phi.k > 2:
            continue
        g = builtin(gen_name)
        spec = LinearBall(phi, 2, finite(radius))
        bf = brute_force_primal(g, P, Q, spec, 0.05 * radius)
        solver = float(restricted_div_primal(g, P, Q, spec).value)
        assert abs(bf.value - solver) <= bf.error_bound + 1e-6


def test_unknown_suite():
    with pytest.raises(UnknownSuite):
        run_suite("nope", 0, 1)


def test_suite_determinism():
    a = run_suite("duality", seed=3, count=3)
    b = run_suite("duality", seed=3, count=3)
    assert a.records == b.records
    assert a.passes == b.passes


@pytest.mark.parametrize(
    "name, count",
    [
        ("generators", 0),
        ("variational_full", 10),
        ("duality", 4),
        ("moment_projection", 10),
        ("r_functional", 12),
        ("gmm_agreement", 2),
        ("sandwich", 2),
    ],
)
def test_suites_pass_smoke(name, count):
    res = run_suite(name, seed=1, count=count)
    assert res.ok, f"{name}: {res.passes}/{res.instances}, worst {res.worst_violation}"


def test_duality_instance_mix():
    gens = set()
    radii = set()
    ks = set()
    partial = 0
    for i in range(50):
        gen_name, P, Q, phi, radius = duality_instance(0, i)
        gens.add(gen_name)
        radii.add(radius)
        ks.add(phi.k)
        if np.any(Q.p == 0.0):
            partial += 1
    assert gens == {"kl", "pearson_chi2", "squared_hellinger", "js_gan"}
    assert radii == {0.1, 1.0, 10.0}
    assert ks == {1, 2, 3}
    assert partial >= 5  # both support patterns are exercised


def test_generator_suite_checks_each_builtin_once():
    # The suite ignores count, and only failed checks add to its worst
    # violation: passing generators carry worst values above 0.
    res = run_suite("generators", 0, 2)
    assert res.instances == len(res.records) == 6 and res.ok
    assert res.worst_violation == 0.0
    assert max(r["worst"] for r in res.records) > 0.0
