import numpy as np
import pytest

from fdual.errors import (
    AllZero,
    BadMinMass,
    DimensionMismatch,
    NegativeWeight,
    NotNormalized,
    SpaceMismatch,
)
from fdual.space import (
    Dist,
    FeatureMap,
    FunctionOnSpace,
    OutcomeSpace,
    _restrict_to_support,
    absolutely_continuous,
    expectation,
    feature_means,
    make_dist,
    random_dist,
    random_instance,
)


@pytest.fixture
def space2():
    return OutcomeSpace.of_size(2)


def test_make_dist_uniform(space2):
    d = make_dist(space2, [1.0, 1.0])
    assert np.allclose(d.p, [0.5, 0.5])


def test_make_dist_proportional(space2):
    d = make_dist(space2, [1.0, 3.0])
    assert np.allclose(d.p, [0.25, 0.75])


def test_make_dist_all_zero(space2):
    with pytest.raises(AllZero):
        make_dist(space2, [0.0, 0.0])


def test_make_dist_negative(space2):
    with pytest.raises(NegativeWeight):
        make_dist(space2, [1.0, -0.5])


def test_space_labels_unique():
    with pytest.raises(DimensionMismatch):
        OutcomeSpace(("a", "a"))


def test_dist_repairs_tiny_drift(space2):
    d = Dist(space2, np.array([0.5 + 2e-10, 0.5]))
    assert abs(float(d.p.sum()) - 1.0) <= 1e-12


def test_dist_refuses_large_drift(space2):
    with pytest.raises(NotNormalized):
        Dist(space2, np.array([0.5, 0.5009]))


def test_expectation_indicator(space2):
    P = make_dist(space2, [1.0, 1.0])
    h = FunctionOnSpace(space2, [0.0, 1.0])
    assert expectation(P, h) == pytest.approx(0.5, abs=1e-15)


def test_expectation_point_mass(space2):
    P = make_dist(space2, [1.0, 0.0])
    h = FunctionOnSpace(space2, [3.0, -7.0])
    assert expectation(P, h) == pytest.approx(3.0, abs=1e-15)


def test_expectation_direct_summation_oracle(space2):
    # Oracle: explicit sum p_i h_i.
    p = [0.25, 0.75]
    h = [2.0, -2.0]
    expected = sum(pi * hi for pi, hi in zip(p, h))
    assert expected == -1.0
    P = make_dist(space2, p)
    assert expectation(P, FunctionOnSpace(space2, h)) == pytest.approx(expected, abs=1e-15)


def test_expectation_space_mismatch(space2):
    other = OutcomeSpace.of_size(3)
    with pytest.raises(SpaceMismatch):
        expectation(make_dist(space2, [1, 1]), FunctionOnSpace(other, [0.0, 1.0, 2.0]))


def test_feature_means_indicator(space2):
    P = make_dist(space2, [1.0, 1.0])
    phi = FeatureMap(space2, [[0.0, 1.0]])
    assert feature_means(P, phi) == pytest.approx([0.5])


def test_feature_means_oracle(space2):
    P = make_dist(space2, [3.0, 1.0])
    phi = FeatureMap(space2, [[0.0, 1.0]])
    expected = sum(p * f for p, f in zip([0.75, 0.25], [0.0, 1.0]))
    assert feature_means(P, phi) == pytest.approx([expected], abs=1e-15)


def test_feature_means_constant():
    space = OutcomeSpace.of_size(3)
    P = make_dist(space, [1.0, 1.0, 1.0])
    phi = FeatureMap(space, [[1.0, 1.0, 1.0]])
    assert feature_means(P, phi) == pytest.approx([1.0], abs=1e-15)


@pytest.mark.parametrize(
    "p, q, expected",
    [([1, 1], [1, 1], True), ([1, 0], [1, 1], True), ([1, 1], [1, 0], False)],
)
def test_absolutely_continuous(space2, p, q, expected):
    assert absolutely_continuous(make_dist(space2, p), make_dist(space2, q)) is expected


def test_random_dist_deterministic():
    space = OutcomeSpace.of_size(10)
    a = random_dist(space, 7, 0.01)
    b = random_dist(space, 7, 0.01)
    assert np.array_equal(a.p, b.p)


def test_random_dist_min_mass():
    space = OutcomeSpace.of_size(10)
    d = random_dist(space, 3, 0.01)
    assert np.all(d.p >= 0.01)


def test_random_dist_seeds_differ():
    space = OutcomeSpace.of_size(6)
    assert not np.array_equal(random_dist(space, 7).p, random_dist(space, 8).p)


def test_random_dist_bad_min_mass():
    space = OutcomeSpace.of_size(4)
    with pytest.raises(BadMinMass):
        random_dist(space, 0, 0.3)


def test_random_instance_deterministic():
    P1, Q1, phi1 = random_instance(42, 5, 2)
    P2, Q2, phi2 = random_instance(42, 5, 2)
    assert np.array_equal(P1.p, P2.p)
    assert np.array_equal(Q1.p, Q2.p)
    assert np.array_equal(phi1.values, phi2.values)


def test_expectation_linearity():
    rng = np.random.default_rng(0)
    space = OutcomeSpace.of_size(7)
    for _ in range(20):
        P = make_dist(space, rng.random(7) + 0.01)
        h = FunctionOnSpace(space, rng.normal(size=7))
        g = FunctionOnSpace(space, rng.normal(size=7))
        alpha, beta = rng.normal(size=2)
        combo = FunctionOnSpace(space, alpha * h.values + beta * g.values)
        lhs = expectation(P, combo)
        rhs = alpha * expectation(P, h) + beta * expectation(P, g)
        assert abs(lhs - rhs) <= 1e-12


def test_feature_means_mixture():
    rng = np.random.default_rng(1)
    space = OutcomeSpace.of_size(6)
    phi = FeatureMap(space, rng.normal(size=(3, 6)))
    for _ in range(20):
        P = make_dist(space, rng.random(6) + 0.01)
        Pp = make_dist(space, rng.random(6) + 0.01)
        alpha = float(rng.random())
        mix = Dist(space, alpha * P.p + (1 - alpha) * Pp.p)
        lhs = feature_means(mix, phi)
        rhs = alpha * feature_means(P, phi) + (1 - alpha) * feature_means(Pp, phi)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_immutability(space2):
    d = make_dist(space2, [1.0, 1.0])
    with pytest.raises(ValueError):
        d.p[0] = 0.9


@pytest.mark.parametrize(
    "values, error, match",
    [
        ([[0.0, np.nan]], DimensionMismatch, "non-finite"),
        ([[np.inf, 0.0]], DimensionMismatch, "non-finite"),
        ([[0.0, 1.0], [-np.inf, 2.0]], DimensionMismatch, "non-finite"),
        ([[1e308, 1e308], [-1e308, 1e308]], None, None),
        ([], DimensionMismatch, "shape"),
        ([[]], DimensionMismatch, "shape"),
        (np.zeros((0, 2)), DimensionMismatch, "at least one feature"),
        ([[0.0, 1.0], [2.0]], ValueError, "inhomogeneous"),
    ],
    ids=["nan", "inf", "-inf", "huge", "empty", "empty_row", "no_feature", "ragged"],
)
def test_feature_map_finiteness_and_shape_checks(space2, values, error, match):
    # The finiteness test reads min and max; each input raises as it did
    # under np.all(np.isfinite(...)).
    if error is None:
        assert FeatureMap(space2, values).k == 2
    else:
        with pytest.raises(error, match=match):
            FeatureMap(space2, values)
    with pytest.raises(DimensionMismatch, match="non-finite"):
        FunctionOnSpace(space2, [np.nan, 0.0])


def test_feature_map_copies_a_writable_input(space2):
    values = np.array([[0.0, 1.0]])
    phi = FeatureMap(space2, values)
    values[0, 0] = 5.0
    assert phi.values[0, 0] == 0.0 and not phi.values.flags.writeable


def test_of_size_returns_a_shared_space():
    a = OutcomeSpace.of_size(4096)
    assert OutcomeSpace.of_size(4096) is a
    assert a == OutcomeSpace(tuple(f"x{i + 1}" for i in range(4096)))
    assert OutcomeSpace.of_size(4096, "y") is OutcomeSpace.of_size(4096, "y")
    assert OutcomeSpace.of_size(4096, "y") != a


def test_of_size_raises_on_every_call():
    # Exceptions are not cached: validation runs on each call.
    for _ in range(3):
        with pytest.raises(DimensionMismatch):
            OutcomeSpace.of_size(0)


def test_space_mismatch_message_is_bounded():
    P = make_dist(OutcomeSpace.of_size(4096), np.ones(4096))
    h = FunctionOnSpace(OutcomeSpace.of_size(4096, "y"), np.zeros(4096))
    with pytest.raises(SpaceMismatch) as err:
        expectation(P, h)
    msg = str(err.value)
    assert len(msg) <= 200
    assert "4096 vs 4096 outcomes" in msg and "position 0: 'x1' vs 'y1'" in msg
    with pytest.raises(SpaceMismatch, match="3 vs 5 outcomes, first at position 3: none vs 'x4'"):
        expectation(make_dist(OutcomeSpace.of_size(3), [1, 1, 1]),
                    FunctionOnSpace(OutcomeSpace.of_size(5), np.zeros(5)))


def test_support_restriction_shares_full_support_arrays():
    P, Q, phi = random_instance(3, 40, 4)
    mask, qs, phi_s = _restrict_to_support(Q, phi)
    assert mask.all()
    assert qs is Q.p and phi_s is phi.values
    assert not qs.flags.writeable and not phi_s.flags.writeable


def test_support_restriction_copies_c_contiguous_without_an_atom():
    _, Q, phi = random_instance(3, 40, 4)
    q = Q.p.copy()
    q[7] = 0.0
    Qd = make_dist(Q.space, q)
    mask, qs, phi_s = _restrict_to_support(Qd, phi)
    assert np.array_equal(mask, Qd.p > 0.0)
    assert np.array_equal(qs, Qd.p[mask]) and np.array_equal(phi_s, phi.values[:, mask])
    assert phi_s.flags.c_contiguous and not np.shares_memory(phi_s, phi.values)
    assert not qs.flags.writeable and not phi_s.flags.writeable
