import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.datagen import (GaussianNoise, IidLinearRegression,
                                 IsotropicGaussianX, StudentTNoise, generate,
                                 squared_loss_variances, true_risk_closed_form)
from hostile_pac.harness import ExperimentConfig
from hostile_pac.moments import (MomentBound, VarianceRegime, empirical_moment_estimate,
                                 geometric_alpha_sum, moment_iid_variance,
                                 moment_mixing_bounded, moment_mixing_unbounded,
                                 moment_subgaussian, optimal_q_finite)
from hostile_pac.param_space import (AtomSet, DiscreteDistribution, ExplicitPrior,
                                     IidSamplePrior, build_prior)
from hostile_pac.risk import SquaredLoss, compute_loss_table
from oracles import optimized_erm_margin


def test_iid_variance_examples():
    assert moment_iid_variance(4.0, 100, 2.0).value == pytest.approx(0.04)
    assert moment_iid_variance(0.0, 50, 2.0).value == 0.0
    assert moment_iid_variance(4.0, 100, 1.5).value == pytest.approx(0.04**0.75)
    with pytest.raises(ValueError):
        moment_iid_variance(1.0, 100, 2.5)
    with pytest.raises(ValueError):
        moment_iid_variance(1.0, 100, 1.0)


def test_subgaussian_examples():
    assert moment_subgaussian(1.0, 100, 2.0).value == pytest.approx(0.04)
    assert moment_subgaussian(0.0, 100, 3.0).value == 0.0
    assert moment_subgaussian(1.0, 100, 4.0).value == pytest.approx(0.0032)
    with pytest.raises(ValueError):
        moment_subgaussian(1.0, 100, 1.5)


def test_mixing_bounded_examples():
    assert moment_mixing_bounded(2.0, 100).value == pytest.approx(0.02)
    assert moment_mixing_bounded(0.0, 100).value == 0.0
    geometric = geometric_alpha_sum(1.0, 1.0, 1.0)
    assert moment_mixing_bounded(geometric, 100).value == pytest.approx(
        2.0 / (1.0 - math.exp(-1.0)) / 100.0)
    assert moment_mixing_bounded(1.0, 100).q == 2.0
    with pytest.raises(ValueError):
        moment_mixing_bounded(-1.0, 100)


def test_mixing_unbounded_examples():
    # (moment_integral, alpha_frac_sum, davydov_factor, n)
    assert moment_mixing_unbounded(1.0, 1.0, 8.0, 100).value == pytest.approx(0.08)
    assert moment_mixing_unbounded(1.0, 0.0, 8.0, 100).value == 0.0
    assert moment_mixing_unbounded(2.0, 3.0, 1.0, 100).value == pytest.approx(0.06)
    assert moment_mixing_unbounded(1.0, 1.0, 8.0, 100).q == 2.0
    with pytest.raises(ValueError):
        moment_mixing_unbounded(-1.0, 1.0, 8.0, 100)


def test_geometric_alpha_sum_examples():
    assert geometric_alpha_sum(1.0, 1.0, 1.0) == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
    assert geometric_alpha_sum(0.0, 1.0, 1.0) == 0.0
    # Exponents cancel: c2/power = 1 and c1**(1/power) = 1.
    assert geometric_alpha_sum(1.0, 3.0, 3.0) == pytest.approx(geometric_alpha_sum(1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        geometric_alpha_sum(1.0, 0.0, 1.0)


def test_geometric_sum_dominates_truncations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        c1 = float(rng.uniform(0.01, 5.0))
        c2 = float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(1.0, 4.0))
        bound = geometric_alpha_sum(c1, c2, r)
        js = np.arange(-200, 201)
        partial = np.sum((c1 * np.exp(-c2 * np.abs(js))) ** (1.0 / r))
        assert bound >= partial - 1e-12


@pytest.mark.parametrize("atoms, weights, tau", [
    ([[1.0, 1.0]], [1.0], 4.0),
    ([[0.0, 0.0]], [1.0], 0.0),
    ([[-1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], 1.0),
    ([[1.0, 1.0], [0.0, 0.0]], [0.25, 0.75], 1.0),
])
def test_variance_regime_kappa_examples(atoms, weights, tau):
    # tau = sum_j pi_j ||theta_j||**4. With x ~ N(0, I_2) and unit Gaussian
    # noise, y ~ N(0, 0.34 + 1): E y**4 = 3 * 1.34**2 and E ||X||**4 = d(d + 2) = 8.
    generator = IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.0),
                                    noise=GaussianNoise(1.0))
    config = ExperimentConfig(generator=generator, loss=SquaredLoss(), delta=0.1, n=100,
                              prior=ExplicitPrior(np.array(atoms), np.array(weights)),
                              regime=VarianceRegime("kappa"))
    p, bound, constants = config.regime.resolve(config, *build_prior(config.prior))
    ey4 = 3.0 * 1.34**2
    assert constants["tau"] == pytest.approx(tau, rel=1e-15, abs=0.0)
    assert constants["ey4"] == pytest.approx(ey4, rel=1e-14)
    assert constants["ex4"] == pytest.approx(8.0, rel=1e-15)
    assert constants["s2"] == pytest.approx(8.0 * (ey4 + tau * 8.0), rel=1e-14)
    assert p == 2.0 and bound.value == pytest.approx(constants["s2"] / 100, rel=1e-15)


def test_optimal_q_examples():
    opt = optimal_q_finite(10, 0.05)
    assert opt.q == pytest.approx(2.0 * math.log(400.0))
    assert not opt.clamped
    boundary = optimal_q_finite(1, 2.0 / math.e)
    assert boundary.q == pytest.approx(2.0)
    clamped = optimal_q_finite(1, 0.9)
    assert clamped.q == 2.0 and clamped.clamped


def test_optimized_erm_margin_oracle():
    got = optimized_erm_margin(1.0, 100, 10, 0.05)
    assert got == pytest.approx(math.sqrt(2.0 * math.e * math.log(400.0) / 100.0), rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    scale=st.floats(min_value=1e-6, max_value=100.0),
)
def test_bounds_nonincreasing_in_n(n, scale):
    for build in (
        lambda m: moment_iid_variance(scale, m, 2.0).value,
        lambda m: moment_subgaussian(scale, m, 3.0).value,
        lambda m: moment_mixing_bounded(scale, m).value,
    ):
        assert build(n + 1) <= build(n) + 1e-18


def test_moment_bound_carries_q():
    assert moment_iid_variance(1.0, 10, 1.5).q == 1.5
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MomentBound(bad, 2.0)
    with pytest.raises(ValueError):
        MomentBound(1.0, 1.0)


def test_empirical_moment_estimate_examples():
    pi = DiscreteDistribution(np.array([1.0]))
    flat = np.full((4, 1), 0.3)
    target = np.array([0.3])
    assert empirical_moment_estimate([flat, flat], target, pi, 2.0) == 0.0
    off = np.full((4, 1), 0.4)
    assert empirical_moment_estimate([off, off], target, pi, 2.0) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        empirical_moment_estimate([flat], target, pi, 2.0)
    with pytest.raises(ValueError):
        empirical_moment_estimate([flat, flat], np.array([0.3, 0.1]), pi, 2.0)


def test_empirical_estimate_below_variance_bound():
    spec = IidLinearRegression(theta_star=(0.4, -0.1), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.5))
    atoms, pi = build_prior(IidSamplePrior(count=10, dim=2, scale=0.6, seed=3))
    n = 200
    target = true_risk_closed_form(spec, atoms, SquaredLoss())
    tables = [compute_loss_table(generate(spec, n, seed=50_000 + i), atoms, SquaredLoss())
              for i in range(500)]
    estimate = empirical_moment_estimate(tables, target, pi, 2.0)
    s2 = float(pi.weights @ squared_loss_variances(spec, atoms))
    assert estimate <= moment_iid_variance(s2, n, 2.0).value
