import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                                     IidSamplePrior, UniformGridPrior, build_prior,
                                     expectation, prior_moment_tau)


def test_grid_prior_enumeration_and_weights():
    atoms, pi = build_prior(UniformGridPrior(bounds=((-1.0, 1.0),), points_per_axis=3))
    assert np.allclose(atoms.coords.ravel(), [-1.0, 0.0, 1.0])
    assert np.allclose(pi.weights, [1 / 3] * 3)


def test_grid_prior_row_major_order():
    atoms, _ = build_prior(UniformGridPrior(bounds=((0.0, 1.0), (0.0, 10.0)),
                                            points_per_axis=2))
    # First coordinate varies slowest.
    assert np.allclose(atoms.coords, [[0, 0], [0, 10], [1, 0], [1, 10]])


def test_explicit_prior_passthrough():
    atoms = np.array([[0.0], [1.0]])
    _, pi = build_prior(ExplicitPrior(atoms=atoms, weights=np.array([0.25, 0.75])))
    assert np.allclose(pi.weights, [0.25, 0.75])


def test_sampled_prior_deterministic():
    spec = IidSamplePrior(count=100, dim=3, law="gaussian", scale=1.0, seed=7)
    a1, _ = build_prior(spec, seed=123)
    a2, _ = build_prior(spec, seed=456)  # spec seed wins
    assert np.array_equal(a1.coords, a2.coords)
    spec_noseed = IidSamplePrior(count=50, dim=2, law="uniform", scale=2.0)
    b1, _ = build_prior(spec_noseed, seed=9)
    b2, _ = build_prior(spec_noseed, seed=9)
    b3, _ = build_prior(spec_noseed, seed=10)
    assert np.array_equal(b1.coords, b2.coords)
    assert not np.array_equal(b1.coords, b3.coords)
    assert np.all(np.abs(b1.coords) <= 2.0)


def test_sampled_prior_uniform_weights():
    _, pi = build_prior(IidSamplePrior(count=10, dim=1), seed=0)
    assert np.allclose(pi.weights, 0.1)


def test_grid_prior_errors():
    with pytest.raises(ValueError):
        build_prior(UniformGridPrior(bounds=(), points_per_axis=3))
    with pytest.raises(ValueError):
        build_prior(UniformGridPrior(bounds=((0.0, np.inf),), points_per_axis=3))
    with pytest.raises(ValueError):
        build_prior(UniformGridPrior(bounds=((0.0, 1.0),), points_per_axis=1))
    with pytest.raises(ValueError):
        build_prior(IidSamplePrior(count=1, dim=1))


def test_distribution_invariants():
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        DiscreteDistribution(np.array([0.5, 0.5 + 1e-6]))
    # Within 1e-9 of one: renormalized to machine precision.
    d = DiscreteDistribution(np.array([0.5, 0.5 + 1e-10]))
    assert abs(d.weights.sum() - 1.0) <= 1e-12


def test_expectation_examples():
    dist = DiscreteDistribution(np.array([0.25, 0.75]))
    assert expectation(dist, np.array([4.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    const = np.full(2, 3.7)
    assert expectation(dist, const) == pytest.approx(3.7, abs=1e-12)
    dirac = DiscreteDistribution.dirac(4, 2)
    assert expectation(dirac, np.array([1.0, 2.0, 3.0, 4.0])) == 3.0
    with pytest.raises(ValueError):
        expectation(dist, np.array([1.0, 2.0, 3.0]))


def test_prior_moment_tau_examples():
    single = AtomSet(np.array([[1.0, 1.0]]))
    assert prior_moment_tau(single, DiscreteDistribution(np.array([1.0]))) == pytest.approx(4.0)
    origin = AtomSet(np.array([[0.0, 0.0]]))
    assert prior_moment_tau(origin, DiscreteDistribution(np.array([1.0]))) == 0.0
    pm_one = AtomSet(np.array([[-1.0], [1.0]]))
    assert prior_moment_tau(pm_one, DiscreteDistribution.uniform(2)) == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(
    weights=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1, max_size=12),
    a=st.floats(min_value=-10, max_value=10),
    b=st.floats(min_value=-10, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_expectation_is_linear(weights, a, b, seed):
    w = np.array(weights)
    dist = DiscreteDistribution(w / w.sum())
    rng = np.random.default_rng(seed)
    v = rng.uniform(-100, 100, len(weights))
    u = rng.uniform(-100, 100, len(weights))
    lhs = expectation(dist, a * v + b * u)
    rhs = a * expectation(dist, v) + b * expectation(dist, u)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_atomset_validation():
    with pytest.raises(ValueError):
        AtomSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        AtomSet(np.array([[np.nan]]))
    atoms = AtomSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(atoms) == 2 and atoms.dim == 2
    assert np.array_equal(atoms.atom(1), [3.0, 4.0])


def test_immutability():
    atoms, pi = build_prior(IidSamplePrior(count=5, dim=2), seed=1)
    with pytest.raises(ValueError):
        atoms.coords[0, 0] = 99.0
    with pytest.raises(ValueError):
        pi.weights[0] = 0.5
