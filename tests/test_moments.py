import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hostile_pac.aggregation import deviation_moments
from hostile_pac.datagen import (AR1, GaussianNoise, IidLinearRegression, IsotropicGaussianX,
                                 MixingBoundSpec, generate, true_risk_closed_form)
from hostile_pac.harness import ConfigError, ExperimentConfig, load_config, resolve_moment
from hostile_pac.moments import (MixingBoundedRegime, MixingUnboundedRegime, MomentBound,
                                 SubGaussianRegime, VarianceRegime, empirical_moment_estimate)
from hostile_pac.param_space import (DiscreteDistribution, ExplicitPrior, IidSamplePrior,
                                     build_prior)
from hostile_pac.risk import SquaredLoss, ZeroOneLoss, compute_loss_table
from oracles import moment_estimate_by_table, optimized_erm_margin

ROOT = Path(__file__).resolve().parents[1]

IID = IidLinearRegression(theta_star=(0.5, -0.3), x_law=IsotropicGaussianX(1.0),
                          noise=GaussianNoise(1.0))
PRIOR = IidSamplePrior(count=10, dim=2, scale=1.0, seed=0)


def _ar1(c1: float = 1.0, c2: float = 1.0) -> AR1:
    return AR1(a=0.5, noise=GaussianNoise(1.0), mixing=MixingBoundSpec(c1=c1, c2=c2))


def _config(regime, generator=IID, loss=SquaredLoss(), **experiment) -> ExperimentConfig:
    fields = {"prior": PRIOR, "delta": 0.1, "n": 100, **experiment}
    return ExperimentConfig(generator=generator, loss=loss, regime=regime, **fields)


def _resolve(config: ExperimentConfig) -> tuple[MomentBound, dict]:
    """The moment bound of ``config`` and the constants echoed with it."""
    cfg, constants = resolve_moment(config, *build_prior(config.prior, config.seed))
    return cfg.moment, constants


def test_iid_variance_examples():
    assert _resolve(_config(VarianceRegime(4.0)))[0].value == pytest.approx(0.04)
    assert _resolve(_config(VarianceRegime(4.0), p=3.0))[0].value == pytest.approx(0.04**0.75)
    # The Jensen step needs q = p/(p-1) <= 2; q must exceed 1; s2 must be positive.
    with pytest.raises(ConfigError, match="experiment.p"):
        _config(VarianceRegime(1.0), p=5.0 / 3.0)
    with pytest.raises(ConfigError, match="experiment.p"):
        _config(VarianceRegime(1.0), p=1e17)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match="regime.s2"):
            _config(VarianceRegime(bad))


def test_subgaussian_examples():
    assert _resolve(_config(SubGaussianRegime(1.0, q=2.0)))[0].value == pytest.approx(0.04)
    assert _resolve(_config(SubGaussianRegime(1.0, q=4.0)))[0].value == pytest.approx(0.0032)
    with pytest.raises(ConfigError, match="regime.q"):
        _config(SubGaussianRegime(1.0, q=1.5))
    with pytest.raises(ConfigError, match="regime.sigma2"):
        _config(SubGaussianRegime(0.0, q=3.0))


def test_mixing_bounded_examples():
    def bounded(alpha_sum="envelope"):
        return _config(MixingBoundedRegime(alpha_sum), generator=_ar1(), loss=ZeroOneLoss())

    bound, _ = _resolve(bounded(2.0))
    assert bound.value == pytest.approx(0.02) and bound.q == 2.0
    assert _resolve(bounded())[0].value == pytest.approx(2.0 / (1.0 - math.exp(-1.0)) / 100.0)
    for bad in (0.0, -1.0):
        with pytest.raises(ConfigError, match="regime.alpha_sum"):
            bounded(bad)


def test_mixing_unbounded_examples():
    def unbounded(moment_integral, alpha_sum, davydov_factor):
        regime = MixingUnboundedRegime(moment_integral=moment_integral, alpha_sum=alpha_sum,
                                       davydov_factor=davydov_factor)
        return _config(regime, generator=_ar1())

    bound, _ = _resolve(unbounded(1.0, 1.0, 8.0))
    assert bound.value == pytest.approx(0.08) and bound.q == 2.0
    assert _resolve(unbounded(2.0, 3.0, 1.0))[0].value == pytest.approx(0.06)
    with pytest.raises(ConfigError, match="regime.moment_integral"):
        unbounded(-1.0, 1.0, 8.0)


def test_geometric_alpha_sum_examples():
    bounded = _config(MixingBoundedRegime(), generator=_ar1(), loss=ZeroOneLoss())
    assert _resolve(bounded)[1]["alpha_sum"] == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
    # Exponents cancel at r = 3: c2/r = 1 and c1**(1/r) = 1.
    unbounded = _config(MixingUnboundedRegime(moment_integral=1.0), generator=_ar1(c2=3.0))
    assert _resolve(unbounded)[1]["alpha_frac_sum"] == pytest.approx(2.0 / (1.0 - math.exp(-1.0)))
    # A zero c1 would give a zero bound; 1 - exp(-c2) must not round to 0.
    with pytest.raises(ConfigError, match="generator.mixing.c1"):
        _config(MixingBoundedRegime(), generator=_ar1(c1=0.0), loss=ZeroOneLoss())
    with pytest.raises(ConfigError, match="generator.mixing.c2"):
        _resolve(_config(MixingBoundedRegime(), generator=_ar1(c2=1e-17), loss=ZeroOneLoss()))


def test_geometric_sum_dominates_truncations():
    rng = np.random.default_rng(1)
    js = np.arange(-200, 201)
    for _ in range(50):
        c1 = float(rng.uniform(0.01, 5.0))
        c2 = float(rng.uniform(0.05, 3.0))
        r = float(rng.uniform(1.0, 4.0))
        regime = MixingUnboundedRegime(r=r, s=2.0 * r / (r - 1.0), moment_integral=1.0)
        bound = _resolve(_config(regime, generator=_ar1(c1, c2)))[1]["alpha_frac_sum"]
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
    def optimized(atoms, delta):
        prior = ExplicitPrior(np.zeros((atoms, 2)), np.full(atoms, 1.0 / atoms))
        bound, constants = _resolve(_config(SubGaussianRegime(0.25, optimize_q=True),
                                             prior=prior, delta=delta))
        assert bound.q == constants["q"]
        return constants["q"], constants["q_clamped"]

    q, clamped = optimized(10, 0.05)
    assert q == pytest.approx(2.0 * math.log(400.0)) and not clamped
    assert optimized(1, 2.0 / math.e)[0] == pytest.approx(2.0)
    assert optimized(1, 0.9) == (2.0, True)


def test_optimized_erm_margin_oracle():
    got = optimized_erm_margin(1.0, 100, 10, 0.05)
    assert got == pytest.approx(math.sqrt(2.0 * math.e * math.log(400.0) / 100.0), rel=1e-13)


MONOTONE_REGIMES = [
    lambda scale: _config(VarianceRegime(scale)),
    lambda scale: _config(SubGaussianRegime(scale, q=3.0)),
    lambda scale: _config(MixingBoundedRegime(scale), generator=_ar1(), loss=ZeroOneLoss()),
    lambda scale: _config(MixingUnboundedRegime(moment_integral=scale), generator=_ar1()),
]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10_000),
    scale=st.floats(min_value=1e-6, max_value=100.0),
)
def test_bounds_nonincreasing_in_n(n, scale):
    for build in MONOTONE_REGIMES:
        config = build(scale)
        if n < config.generator.min_n:
            continue
        at_n = _resolve(dataclasses.replace(config, n=n))[0].value
        assert _resolve(dataclasses.replace(config, n=n + 1))[0].value <= at_n + 1e-18


def test_moment_bound_carries_q():
    assert _resolve(_config(VarianceRegime(1.0), p=3.0))[0].q == 1.5
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MomentBound(bad, 2.0)
    with pytest.raises(ValueError):
        MomentBound(1.0, 1.0)


def _hand_formula(config: ExperimentConfig, c: dict) -> tuple[float, float]:
    """(M, q) of regime ``c["regime"]``, from ``config`` and the constants echoed with M."""
    if c["regime"] == "variance":
        q = config.p / (config.p - 1.0)
        return (c["s2"] / config.n) ** (q / 2.0), q
    if c["regime"] == "subgaussian":
        return 2.0 * (c["q"] * c["sigma2"] / config.n) ** (c["q"] / 2.0), c["q"]
    if c["regime"] == "mixing_bounded":
        return c["alpha_sum"] / config.n, 2.0
    return c["davydov_factor"] * c["moment_integral"] * c["alpha_frac_sum"] / config.n, 2.0


@pytest.mark.parametrize("path", sorted(ROOT.glob("configs/*.yaml"))
                         + sorted(ROOT.glob("perfbench/configs/*.yaml")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_moment_bound_is_the_regime_formula(path):
    config = load_config(path)
    bound, c = _resolve(config)
    assert (bound.value, bound.q) == _hand_formula(config, c)
    if c["regime"] == "variance" and c["s2_mode"] == "kappa":
        assert c["s2"] == 8.0 * (c["ey4"] + c["tau"] * c["ex4"])
    if c.get("q_clamped") is False:
        atoms, _ = build_prior(config.prior, config.seed)
        assert c["q"] == 2.0 * math.log(2.0 * len(atoms) / config.delta)
    if c["regime"].startswith("mixing") and config.regime.alpha_sum == "envelope":
        power, key = ((config.regime.r, "alpha_frac_sum") if c["regime"] == "mixing_unbounded"
                      else (1.0, "alpha_sum"))
        assert c[key] == 2.0 * c["c1"] ** (1.0 / power) / (1.0 - math.exp(-c["c2"] / power))


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


# Entries are 0 or at least 1e-3, so no |gap|**q lands among the subnormals,
# where rounding differs by more than rel 1e-12.
_ENTRY = st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=5.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), num_tables=st.integers(2, 5), rows=st.integers(1, 4),
       num_atoms=st.integers(1, 8), q=st.floats(min_value=1.01, max_value=12.0))
def test_empirical_moment_estimate_is_the_realized_moment(data, num_tables, rows, num_atoms, q):
    tables = [np.array(data.draw(st.lists(_ENTRY, min_size=rows * num_atoms,
                                          max_size=rows * num_atoms))).reshape(rows, num_atoms)
              for _ in range(num_tables)]
    target = np.array(data.draw(st.lists(_ENTRY, min_size=num_atoms, max_size=num_atoms)))
    raw = np.array(data.draw(st.lists(st.floats(min_value=1e-3, max_value=1.0),
                                      min_size=num_atoms, max_size=num_atoms)))
    pi = DiscreteDistribution(raw / raw.sum())
    estimate = empirical_moment_estimate(tables, target, pi, q)
    # Coverage's realized_moment: the mean of both deviation_moments sides added.
    gaps = target - np.stack([table.mean(axis=0) for table in tables])
    realized = float(np.mean(np.add(*deviation_moments(gaps, pi, q))))
    assert estimate == pytest.approx(realized, rel=1e-12, abs=0.0)
    assert estimate == pytest.approx(moment_estimate_by_table(tables, target, pi, q),
                                     rel=1e-12, abs=0.0)


def test_empirical_estimate_below_variance_bound():
    spec = IidLinearRegression(theta_star=(0.4, -0.1), x_law=IsotropicGaussianX(1.0),
                               noise=GaussianNoise(variance=0.5))
    config = _config(VarianceRegime("exact"), generator=spec, n=200,
                     prior=IidSamplePrior(count=10, dim=2, scale=0.6, seed=3))
    atoms, pi = build_prior(config.prior)
    target = true_risk_closed_form(spec, atoms, SquaredLoss())
    tables = [compute_loss_table(generate(spec, config.n, seed=50_000 + i), atoms, SquaredLoss())
              for i in range(500)]
    estimate = empirical_moment_estimate(tables, target, pi, 2.0)
    assert estimate <= _resolve(config)[0].value
