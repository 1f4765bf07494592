import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.divergence import f_divergence, power_divergence_plus_one
from hostile_pac.param_space import DiscreteDistribution
from oracles import divergence_plus_one_direct, divergence_plus_one_uniform


def _dist(values):
    w = np.asarray(values, dtype=float)
    return DiscreteDistribution(w / w.sum())


def _plus_one(rho: DiscreteDistribution, pi: DiscreteDistribution, p: float) -> float:
    return float(power_divergence_plus_one(rho.weights[None], pi, p)[0])


def test_zero_at_equality():
    for p in (1.5, 3.0):
        d = _dist([0.2, 0.3, 0.5])
        assert _plus_one(d, d, p) - 1.0 == pytest.approx(0.0, abs=1e-14)


def test_dirac_against_uniform_power_two():
    pi = DiscreteDistribution.uniform(10)
    dirac = DiscreteDistribution(np.eye(10)[3])
    assert _plus_one(dirac, pi, 2.0) - 1.0 == pytest.approx(9.0, rel=1e-13)


def test_hand_computed_chi_square():
    rho = _dist([0.5, 0.5])
    pi = _dist([0.25, 0.75])
    assert _plus_one(rho, pi, 2.0) - 1.0 == pytest.approx(1.0 / 3.0, rel=1e-13)


def test_mass_on_null_atom_is_infinite():
    rho = _dist([0.5, 0.5])
    pi = DiscreteDistribution(np.array([1.0, 0.0]))
    assert math.isinf(_plus_one(rho, pi, 2.0))
    # Shared null atoms contribute nothing.
    rho0 = DiscreteDistribution(np.array([1.0, 0.0]))
    assert _plus_one(rho0, pi, 2.0) - 1.0 == pytest.approx(0.0, abs=1e-14)


def test_mismatched_atom_sets_error():
    with pytest.raises(ValueError):
        _plus_one(_dist([1.0]), _dist([0.5, 0.5]), 2.0)
    with pytest.raises(ValueError):
        divergence_plus_one_uniform(_dist([0.5, 0.5]), 3, 2.0)


def test_uniform_closed_form_examples():
    assert divergence_plus_one_uniform(DiscreteDistribution(np.eye(10)[0]), 10, 2.0) == pytest.approx(10.0)
    assert divergence_plus_one_uniform(DiscreteDistribution.uniform(7), 7, 2.5) == pytest.approx(1.0)
    half = DiscreteDistribution(np.array([0.5, 0.5, 0.0, 0.0]))
    assert divergence_plus_one_uniform(half, 4, 2.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        divergence_plus_one_uniform(half, 4, 1.0)


def test_f_divergence_is_d_plus_one_minus_one_and_requires_p_above_one():
    rng = np.random.default_rng(5)
    for p in (1.5, 2.0, 3.0):
        rho, pi = (DiscreteDistribution(rng.dirichlet(np.ones(7))) for _ in range(2))
        assert f_divergence(rho, pi, p) == _plus_one(rho, pi, p) - 1.0
    for p in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(ValueError):
            f_divergence(rho, pi, p)
    with pytest.raises(ValueError):
        f_divergence(_dist([1.0]), _dist([0.5, 0.5]), 2.0)


@settings(max_examples=150, deadline=None)
@given(
    raw_rho=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20),
    raw_pi=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=20),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_nonnegativity(raw_rho, raw_pi, p):
    size = min(len(raw_rho), len(raw_pi))
    rho_w = np.asarray(raw_rho[:size])
    if rho_w.sum() == 0:
        rho_w = np.ones(size)
    rho = _dist(rho_w)
    pi = _dist(raw_pi[:size])
    assert _plus_one(rho, pi, p) - 1.0 >= -1e-12


def test_closed_form_agreement_random():
    rng = np.random.default_rng(42)
    for _ in range(500):
        size = int(rng.integers(2, 51))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        rho = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        value = _plus_one(rho, DiscreteDistribution.uniform(size), p)
        closed = divergence_plus_one_uniform(rho, size, p)
        assert abs(value - closed) <= 1e-12 * closed


def test_strict_positivity_near_equality():
    rng = np.random.default_rng(3)
    base = rng.dirichlet(np.ones(6))
    pi = DiscreteDistribution(base)
    bump = np.zeros(6)
    bump[0], bump[1] = 1e-8, -1e-8
    rho = DiscreteDistribution(base + bump)
    for p in (1.5, 2.0, 3.0):
        assert _plus_one(rho, pi, p) > 1.0


@settings(max_examples=150, deadline=None)
@given(
    raw_rho=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=20),
    raw_pi=st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=20),
    p=st.sampled_from([1.5, 2.0, 3.0]),
)
def test_power_divergence_plus_one_matches_references(raw_rho, raw_pi, p):
    size = min(len(raw_rho), len(raw_pi))
    rho_w = np.asarray(raw_rho[:size])
    if rho_w.sum() == 0:
        rho_w = np.ones(size)
    rho = _dist(rho_w)
    pi = _dist(raw_pi[:size])
    uniform = DiscreteDistribution.uniform(size)

    closed = divergence_plus_one_uniform(rho, size, p)
    assert _plus_one(rho, uniform, p) == pytest.approx(closed, rel=1e-12)
    value = _plus_one(rho, pi, p)
    direct = divergence_plus_one_direct(rho, pi, p)
    assert abs(value - direct) <= 1e-12 * direct

    # Mass off the support of pi is +inf.
    off = np.append(pi.weights[:-1], 0.0)
    off_pi = DiscreteDistribution(off / off.sum())
    off_value = power_divergence_plus_one(rho.weights[None], off_pi, p)[0]
    assert math.isinf(off_value) == (rho.weights[-1] > 0)
    assert math.isinf(_plus_one(pi, off_pi, p))


def test_large_p_with_empty_atom_stays_finite():
    # p = 129 (q = 1.0078125): pi_0**(1-p) overflows while rho_0**p = 0.
    pi = DiscreteDistribution(np.array([0.000999, 0.999001]))
    value = power_divergence_plus_one(np.array([[0.0, 1.0]]), pi, 129.0)[0]
    assert value == 0.999001 ** (1.0 - 129.0)
    # A distribution whose D + 1 truly overflows.
    assert power_divergence_plus_one(np.array([[0.5, 0.5]]), pi, 129.0)[0] == math.inf
