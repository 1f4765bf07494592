import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                                     IidSamplePrior, build_prior, expectation)


def test_explicit_prior_passthrough():
    atoms = np.array([[0.0], [1.0]])
    _, pi = build_prior(ExplicitPrior(atoms=atoms, weights=np.array([0.25, 0.75])))
    assert np.allclose(pi.weights, [0.25, 0.75])


def test_sampled_prior_deterministic():
    spec = IidSamplePrior(count=100, dim=3, scale=1.0, seed=7)
    a1, _ = build_prior(spec, seed=123)
    a2, _ = build_prior(spec, seed=456)  # spec seed wins
    assert np.array_equal(a1.coords, a2.coords)
    spec_noseed = IidSamplePrior(count=50, dim=2, scale=2.0)
    b1, _ = build_prior(spec_noseed, seed=9)
    b2, _ = build_prior(spec_noseed, seed=9)
    b3, _ = build_prior(spec_noseed, seed=10)
    assert np.array_equal(b1.coords, b2.coords)
    assert not np.array_equal(b1.coords, b3.coords)


def test_sampled_prior_uniform_weights():
    _, pi = build_prior(IidSamplePrior(count=10, dim=1), seed=0)
    assert np.allclose(pi.weights, 0.1)
    # Scale zero is a point-mass law: every atom at the origin.
    atoms, _ = build_prior(IidSamplePrior(count=3, dim=2, scale=0.0))
    assert not atoms.coords.any()


def test_sampled_prior_origin_is_positive_zero():
    # A negative draw times scale 0 is -0.0; the origin is +0.0 in every coordinate.
    spec = IidSamplePrior(count=20, dim=3, scale=0.0, seed=5)
    draws = np.random.default_rng(5).standard_normal((20, 3))
    assert (draws < 0).any()
    atoms, _ = build_prior(spec)
    assert not np.signbit(atoms.coords).any()
    assert atoms.coords.tobytes() == np.zeros((20, 3)).tobytes()
    # Every nonzero coordinate keeps the bits of draw times scale.
    for scale in (1.0, 0.37, 1e-300):
        atoms, _ = build_prior(IidSamplePrior(count=20, dim=3, scale=scale, seed=5))
        assert atoms.coords.tobytes() == (draws * scale).tobytes()


@pytest.mark.parametrize("spec, kwargs, field", [
    (IidSamplePrior, {"count": 1, "dim": 1}, "count"),
    (IidSamplePrior, {"count": 5, "dim": 1, "scale": -1.0}, "scale"),
    (IidSamplePrior, {"count": 5, "dim": 1, "seed": -1}, "seed"),
    (ExplicitPrior, {"atoms": np.zeros((2, 1)), "weights": np.ones(3) / 3}, "weights"),
], ids=["sample-count", "sample-scale", "sample-seed",
        "explicit-weights"])
def test_prior_specs_reject_bad_values_on_construction(spec, kwargs, field):
    with pytest.raises(ValueError, match=field):
        spec(**kwargs)


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
    assert expectation(dist, np.array([[4.0, 0.0]]))[0] == pytest.approx(1.0, abs=1e-15)
    const = np.full((1, 2), 3.7)
    assert expectation(dist, const)[0] == pytest.approx(3.7, abs=1e-12)
    dirac = DiscreteDistribution(np.eye(4)[2])
    assert expectation(dirac, np.array([[1.0, 2.0, 3.0, 4.0]]))[0] == 3.0
    with pytest.raises(ValueError):
        expectation(dist, np.array([[1.0, 2.0, 3.0]]))


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
    lhs = expectation(dist, (a * v + b * u)[None])[0]
    rhs = a * expectation(dist, v[None])[0] + b * expectation(dist, u[None])[0]
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_atomset_validation():
    with pytest.raises(ValueError):
        AtomSet(np.empty((0, 2)))
    with pytest.raises(ValueError):
        AtomSet(np.array([[np.nan]]))
    # Coordinates are one (K, k) array: no vector, and no stack of arrays.
    for coords in (np.array([1.0, 2.0]), np.zeros((2, 2, 1)), np.float64(1.0)):
        with pytest.raises(ValueError, match=r"\(K, k\) array"):
            AtomSet(coords)
    atoms = AtomSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert len(atoms) == 2 and atoms.dim == 2
    assert np.array_equal(atoms.coords[1], [3.0, 4.0])


def test_immutability():
    atoms, pi = build_prior(IidSamplePrior(count=5, dim=2), seed=1)
    with pytest.raises(ValueError):
        atoms.coords[0, 0] = 99.0
    with pytest.raises(ValueError):
        pi.weights[0] = 0.5
