"""Built-in closed-form checks, runnable via ``hostile-pac selftest``.

Each check exercises one operation against a value computable by hand or by
an independent scalar formula; the suite is fast enough to run on every
install. Returns a process-style exit code (0 all pass, 2 otherwise).
"""

from __future__ import annotations

import math

import numpy as np

from .aggregation import (BoundConfig, catoni_pi_gamma, erm_index,
                          minimized_objective_identity, optimal_gamma,
                          oracle_bound_empirical, oracle_bound_population,
                          pac_margin, rho_hat, solve_rbar, verify_complexity)
from .datagen import (AR1, GaussianNoise, IidLinearRegression,
                      IsotropicGaussianX, StudentTNoise, noise_moment,
                      true_risk_closed_form)
from .divergence import KL, PhiP, divergence_plus_one_uniform, f_divergence
from .moments import (MixingUnbounded, MomentBound, geometric_alpha_sum,
                      kappa_quadratic, moment_iid_variance, moment_mixing_bounded,
                      moment_mixing_unbounded, moment_subgaussian,
                      optimal_q_finite, optimized_erm_margin)
from .param_space import (AtomSet, DiscreteDistribution, UniformGridPrior,
                          build_prior, expectation, prior_moment_tau)
from .risk import (AbsoluteLoss, Dataset, SquaredLoss, compute_loss_table, empirical_risk,
                   empirical_risks)


def _close(got, want, tol=1e-10):
    if not math.isclose(got, want, rel_tol=tol, abs_tol=tol):
        raise AssertionError(f"got {got!r}, wanted {want!r}")


def _check_grid_prior():
    atoms, pi = build_prior(UniformGridPrior(bounds=((-1.0, 1.0),), points_per_axis=3))
    assert np.allclose(atoms.coords.ravel(), [-1.0, 0.0, 1.0])
    assert np.allclose(pi.weights, 1.0 / 3.0)


def _check_expectation():
    dist = DiscreteDistribution(np.array([0.25, 0.75]))
    _close(expectation(dist, np.array([4.0, 0.0])), 1.0)


def _check_prior_moment():
    atoms = AtomSet(np.array([[1.0, 1.0]]))
    _close(prior_moment_tau(atoms, DiscreteDistribution(np.array([1.0]))), 4.0)
    two = AtomSet(np.array([[-1.0], [1.0]]))
    _close(prior_moment_tau(two, DiscreteDistribution.uniform(2)), 1.0)


def _check_divergences():
    rho = DiscreteDistribution(np.array([0.5, 0.5]))
    pi = DiscreteDistribution(np.array([0.25, 0.75]))
    _close(f_divergence(rho, pi, PhiP(2.0)), 1.0 / 3.0)
    _close(f_divergence(rho, pi, KL()), 0.5 * math.log(4.0 / 3.0))
    dirac = DiscreteDistribution.dirac(10, 0)
    _close(f_divergence(dirac, DiscreteDistribution.uniform(10), PhiP(2.0)) + 1.0, 10.0)
    _close(divergence_plus_one_uniform(
        DiscreteDistribution(np.array([0.5, 0.5, 0.0, 0.0])), 4, 2.0), 2.0)


def _check_moment_bounds():
    _close(moment_iid_variance(4.0, 100, 2.0).value, 0.04)
    _close(moment_iid_variance(4.0, 100, 1.5).value, 0.04**0.75)
    _close(moment_subgaussian(1.0, 100, 2.0).value, 0.04)
    _close(moment_subgaussian(1.0, 100, 4.0).value, 0.0032)
    _close(moment_mixing_bounded(2.0, 100).value, 0.02)
    regime = MixingUnbounded(r=3.0, s=3.0, moment_integral=1.0, alpha_frac_sum=1.0)
    _close(moment_mixing_unbounded(regime, 100).value, 0.08)
    shown = MixingUnbounded(r=3.0, s=3.0, moment_integral=2.0, alpha_frac_sum=3.0,
                            davydov_factor=1.0)
    _close(moment_mixing_unbounded(shown, 100).value, 0.06)


def _check_geometric_sum():
    _close(geometric_alpha_sum(1.0, 1.0, 1.0), 2.0 / (1.0 - math.exp(-1.0)))
    _close(geometric_alpha_sum(1.0, 3.0, 3.0), 2.0 / (1.0 - math.exp(-1.0)))
    _close(geometric_alpha_sum(0.0, 1.0, 1.0), 0.0)


def _check_kappa_and_q():
    _close(kappa_quadratic(9.0, 2.0, 3.0), 120.0)
    _close(kappa_quadratic(25.0, 1.0, 3.0), 224.0)
    _close(noise_moment(StudentTNoise(dof=5.0), 4), 25.0)
    _close(optimal_q_finite(10, 0.05).q, 2.0 * math.log(400.0))
    _close(optimized_erm_margin(1.0, 100, 10, 0.05),
           math.sqrt(2.0 * math.e * math.log(400.0) / 100.0))


def _check_pac_margin():
    bound = MomentBound(0.004, 2.0, 100, "iid_variance")
    cfg = BoundConfig(p=2.0, delta=0.1, moment=bound)
    _close(pac_margin(cfg, 10.0), math.sqrt(0.04) * math.sqrt(10.0))
    bound2 = MomentBound(0.04, 2.0, 100, "iid_variance")
    cfg2 = BoundConfig(p=2.0, delta=0.1, moment=bound2)
    _close(pac_margin(cfg2, 1.0), math.sqrt(0.4))
    assert math.isinf(pac_margin(cfg, math.inf))


def _check_level_solver():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([0.0, 1.0])
    _close(solve_rbar(rn, pi, 2.0, 0.0125, 0.1), 0.5)
    _close(solve_rbar(rn, pi, 2.0, 0.0625, 0.1), (1.0 + math.sqrt(1.5)) / 2.0)
    tiny_floor = DiscreteDistribution(np.array([1e-300, 1.0 - 1e-300]))
    _close(solve_rbar(rn, tiny_floor, 2.0, 0.001, 0.1), 1.1)
    single = DiscreteDistribution(np.array([1.0]))
    _close(solve_rbar(np.array([0.3]), single, 3.0, 0.008, 0.1), 0.3 + 0.08 ** (1 / 3))


def _check_rho_hat():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([0.0, 1.0])
    assert np.allclose(rho_hat(rn, pi, 2.0, 0.5).weights, [1.0, 0.0])
    rbar = (1.0 + math.sqrt(1.5)) / 2.0
    weights = rho_hat(rn, pi, 2.0, rbar).weights
    assert np.allclose(weights, [rbar / (2 * rbar - 1), (rbar - 1) / (2 * rbar - 1)],
                       atol=1e-9)


def _check_objective_identity():
    pi = DiscreteDistribution.uniform(2)
    rn = np.array([0.0, 1.0])
    bound = MomentBound(0.0125, 2.0, 100, "iid_variance")
    cfg = BoundConfig(p=2.0, delta=0.1, moment=bound)
    rbar, rho, objective = minimized_objective_identity(rn, pi, cfg)
    _close(rbar, 0.5)
    _close(objective, 0.5, tol=1e-8)
    probe_objective = expectation(pi, rn) + pac_margin(cfg, 1.0)
    _close(probe_objective, 0.5 + math.sqrt(0.125))
    assert probe_objective >= rbar


def _check_catoni():
    pi = DiscreteDistribution.uniform(3)
    rn = np.array([0.0, 0.1, 1.0])
    assert np.allclose(catoni_pi_gamma(rn, pi, 0.2).weights, [0.5, 0.5, 0.0])
    assert np.allclose(catoni_pi_gamma(rn, pi, 0.0).weights, [1.0, 0.0, 0.0])
    assert np.allclose(catoni_pi_gamma(rn, pi, 2.0).weights, pi.weights)


def _check_optimal_gamma():
    _close(optimal_gamma(2.0, 2.0, 0.001, 0.1), 0.1)
    _close(optimal_gamma(1.0, 2.0, 0.004, 0.1), 0.02 ** (2.0 / 3.0))


def _check_erm_index():
    assert erm_index(np.array([0.3, 0.1, 0.1])) == 1
    assert erm_index(np.array([5.0])) == 0


def _check_oracle_bounds():
    _close(oracle_bound_empirical(0.2, 1e-5, 0.1, 2.0, 2.0), 0.4)
    _close(oracle_bound_population(0.0, 0.1, 0.1, 2.0, 2.0), math.sqrt(2.0))
    _close(oracle_bound_population(0.1, 1e-5, 0.1, 2.0, 2.0),
           0.1 + math.sqrt(2.0) * 0.1)


def _check_complexity():
    pi = DiscreteDistribution.uniform(100)
    values = np.arange(100) / 100.0
    est = verify_complexity(values, pi, np.arange(1, 10) / 10.0)
    assert est.satisfied and 0.9 < est.d < 1.05, est
    flat = verify_complexity(np.zeros(4), DiscreteDistribution.uniform(4),
                             np.array([0.5]))
    assert flat.satisfied and flat.d == 64.0


def _check_risk_tables():
    data = Dataset(x=np.array([[1.0, 1.0]]), y=np.array([0.0]))
    atoms = AtomSet(np.array([[1.0, 2.0]]))
    _close(compute_loss_table(data, atoms, SquaredLoss()).losses[0, 0], 9.0)
    _close(compute_loss_table(data, atoms, AbsoluteLoss()).losses[0, 0], 3.0)
    rows = Dataset(x=np.array([[1.0]] * 3), y=np.array([1.0, 0.0, -1.0]))
    one = AtomSet(np.array([[1.0]]))
    col = empirical_risk(compute_loss_table(rows, one, SquaredLoss()))
    _close(float(col[0]), (0.0 + 1.0 + 4.0) / 3.0)
    # Closed form: theta0 = mean(y) = 0, e0 . e0 = 2, R = sqrt(3), so (2 + 3 * 1**2) / 3.
    _close(float(empirical_risks(rows, one, SquaredLoss())[0]), (2.0 + 3.0) / 3.0)


def _check_true_risk():
    spec = AR1(a=0.5, noise=GaussianNoise(variance=1.0))
    atoms = AtomSet(np.array([[0.0, 0.5]]))
    _close(float(true_risk_closed_form(spec, atoms)[0]), 1.0)
    reg = IidLinearRegression(theta_star=(1.0, -1.0), x_law=IsotropicGaussianX(1.0),
                              noise=GaussianNoise(variance=0.3))
    at_star = AtomSet(np.array([[1.0, -1.0]]))
    _close(float(true_risk_closed_form(reg, at_star)[0]), 0.3)


CHECKS = [
    ("grid prior enumeration", _check_grid_prior),
    ("expectation", _check_expectation),
    ("prior norm moments", _check_prior_moment),
    ("f-divergence closed forms", _check_divergences),
    ("moment bounds", _check_moment_bounds),
    ("geometric mixing sums", _check_geometric_sum),
    ("kurtosis constant and optimized exponent", _check_kappa_and_q),
    ("certificate margin", _check_pac_margin),
    ("budget level solver", _check_level_solver),
    ("optimal aggregation weights", _check_rho_hat),
    ("minimized objective identity", _check_objective_identity),
    ("sublevel prior restriction", _check_catoni),
    ("optimized sublevel width", _check_optimal_gamma),
    ("empirical risk minimizer index", _check_erm_index),
    ("oracle bounds", _check_oracle_bounds),
    ("sublevel-mass exponent", _check_complexity),
    ("loss tables and empirical risk", _check_risk_tables),
    ("closed-form true risks", _check_true_risk),
]


def run(verbose: bool = True) -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report every failure
            failures += 1
            if verbose:
                print(f"FAIL  {name}: {exc}")
        else:
            if verbose:
                print(f"ok    {name}")
    if verbose:
        total = len(CHECKS)
        print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 2
