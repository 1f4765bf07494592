"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from hostile_pac.aggregation import (deviation_moments, pac_margin, rho_hat,
                                     solve_rbar)
from hostile_pac.datagen import (AR1, BoundedClassification, GaussianNoise,
                                 IidLinearRegression, IsotropicGaussianX,
                                 MixingBoundSpec, StudentTNoise, generate,
                                 true_risk_closed_form)
from hostile_pac.divergence import power_divergence_plus_one
from hostile_pac.harness import (ExperimentConfig, fit_loglog_slope, resolve_moment,
                                 run_coverage, run_sweep)
from hostile_pac.moments import (MixingBoundedRegime, MixingUnboundedRegime,
                                 SubGaussianRegime, VarianceRegime)
from hostile_pac.param_space import (DiscreteDistribution, IidSamplePrior,
                                     build_prior, expectation)
from hostile_pac.risk import SquaredLoss, ZeroOneLoss, empirical_risks
from oracles import divergence_plus_one_uniform, optimized_erm_margin


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_divergence_closed_form():
    rng = np.random.default_rng(2025)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        size = int(rng.integers(2, 51))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        rho = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        uniform = DiscreteDistribution.uniform(size)
        value = power_divergence_plus_one(rho.weights[None], uniform, p)[0]
        closed = divergence_plus_one_uniform(rho, size, p)
        worst = max(worst, abs(value - closed) / closed)
    elapsed = time.perf_counter() - start
    _report(1, "divergence closed form", worst <= 1e-12 and elapsed < 5.0,
            f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hoelder_core():
    rng = np.random.default_rng(2026)
    start = time.perf_counter()
    min_slack = math.inf
    for _ in range(10_000):
        size = int(rng.integers(2, 40))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rho = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        deltas = rng.uniform(0.0, 1.0, size)
        lhs = expectation(rho, deltas[None])[0]
        rhs = float(pi.weights @ deltas**q) ** (1.0 / q) * (
            power_divergence_plus_one(rho.weights[None], pi, p)[0]) ** (1.0 / p)
        min_slack = min(min_slack, rhs - lhs)
    elapsed = time.perf_counter() - start
    _report(2, "deterministic certificate inequality",
            min_slack >= -1e-12 and elapsed < 10.0,
            f"min slack {min_slack:.2e}, {elapsed:.2f}s")


def test_criterion_03_level_solver():
    rng = np.random.default_rng(2027)
    start = time.perf_counter()
    worst_residual = 0.0
    for _ in range(1_000):
        size = int(rng.integers(2, 64))
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0.0, 1.0, size)
        q = float(rng.uniform(1.1, 3.0))
        budget = 10.0 ** rng.uniform(-6, 1)
        root = solve_rbar(rn[None], pi, q, budget)[0]
        spend = float(pi.weights @ np.maximum(root - rn, 0.0) ** q)
        worst_residual = max(worst_residual, abs(spend - budget) / budget)
    two_atom = DiscreteDistribution.uniform(2)
    errs = [
        abs(solve_rbar(np.array([[0.0, 1.0]]), two_atom, 2.0, 0.125)[0] - 0.5),
        abs(solve_rbar(np.array([[0.0, 1.0]]), two_atom, 2.0, 0.625)[0]
            - (1.0 + math.sqrt(1.5)) / 2.0),
    ]
    elapsed = time.perf_counter() - start
    ok = worst_residual <= 1e-10 and max(errs) <= 1e-10 and elapsed < 5.0
    _report(3, "budget level solver",
            ok, f"max residual {worst_residual:.2e}, closed-form err {max(errs):.2e}, "
                f"{elapsed:.2f}s")


def test_criterion_04_minimizer_identity():
    rng = np.random.default_rng(2028)
    start = time.perf_counter()
    worst_identity = 0.0
    worst_gap = math.inf
    for _ in range(100):
        size = int(rng.integers(2, 40))
        p = float(rng.choice([1.5, 2.0, 3.0]))
        q = p / (p - 1.0)
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0.0, 1.0, size)
        budget = 10.0 ** rng.uniform(-4, -1)
        rbar = solve_rbar(rn[None], pi, q, budget)[0]
        rho = DiscreteDistribution(rho_hat(rn[None], pi, p, rbar)[0])
        objective = expectation(rho, rn[None])[0] + budget ** (1.0 / q) * (
            power_divergence_plus_one(rho.weights[None], pi, p)[0]) ** (1.0 / p)
        worst_identity = max(worst_identity, abs(objective - rbar) / rbar)
        probes = rng.dirichlet(np.ones(size), size=1_000)
        div_rows = np.sum(probes**p * pi.weights ** (1.0 - p), axis=1)
        objectives = probes @ rn + budget ** (1.0 / q) * div_rows ** (1.0 / p)
        worst_gap = min(worst_gap, float(objectives.min() - objective))
    elapsed = time.perf_counter() - start
    ok = worst_identity <= 1e-8 and worst_gap >= -1e-9 and elapsed < 30.0
    _report(4, "minimized objective identity", ok,
            f"max identity err {worst_identity:.2e}, min probe gap {worst_gap:.2e}, "
            f"{elapsed:.2f}s")


def test_criterion_05_scaling_equivariance():
    rng = np.random.default_rng(2029)
    worst_weight = 0.0
    worst_level = 0.0
    for _ in range(20):
        size = int(rng.integers(2, 30))
        p = 2.0
        q = 2.0
        pi = DiscreteDistribution(rng.dirichlet(np.ones(size)))
        rn = rng.uniform(0.0, 1.0, size)
        budget = 10.0 ** rng.uniform(-4, -1)
        base_level = solve_rbar(rn[None], pi, q, budget)[0]
        base_weights = rho_hat(rn[None], pi, p, base_level)[0]
        for c in (0.1, 10.0):
            level = solve_rbar(c * rn[None], pi, q, budget * c**q)[0]
            weights = rho_hat(c * rn[None], pi, p, level)[0]
            worst_level = max(worst_level, abs(level - c * base_level) / max(1.0, c))
            worst_weight = max(worst_weight, float(np.max(np.abs(weights - base_weights))))
    ok = worst_level <= 1e-10 and worst_weight <= 1e-10
    _report(5, "scaling equivariance", ok,
            f"max level err {worst_level:.2e}, max weight err {worst_weight:.2e}")


CRIT6_CONFIG = ExperimentConfig(
    generator=IidLinearRegression(theta_star=(0.5, -0.3),
                                  x_law=IsotropicGaussianX(1.0),
                                  noise=StudentTNoise(dof=5.0, scale=1.0)),
    prior=IidSamplePrior(count=100, dim=2, scale=1.0, seed=101),
    loss=SquaredLoss(),
    p=2.0,
    delta=0.1,
    regime=VarianceRegime(s2="kappa"),
    n=200,
    replications=500,
    seed=606,
    gamma_grid=tuple(np.linspace(0.05, 0.9, 10).tolist()),
)


def test_criterion_06_coverage_iid_heavy_tailed():
    start = time.perf_counter()
    report = run_coverage(CRIT6_CONFIG)
    elapsed = time.perf_counter() - start
    ok = report.summary["coverage_two_sided"] >= 0.90 and elapsed < 300.0
    _report(6, "coverage on heavy-tailed i.i.d. regression", ok,
            f"coverage {report.summary['coverage_two_sided']:.3f} over "
            f"{report.summary['replications']} "
            f"replications, {elapsed:.1f}s")


CRIT7_CONFIG = ExperimentConfig(
    generator=AR1(a=0.5, noise=StudentTNoise(dof=7.0, scale=0.5),
                  mixing=MixingBoundSpec(c1=0.5, c2=math.log(2.0))),
    prior=IidSamplePrior(count=50, dim=2, scale=0.5, seed=202),
    loss=SquaredLoss(),
    p=2.0,
    delta=0.1,
    regime=MixingUnboundedRegime(r=3.0, s=3.0, davydov_factor=8.0),
    n=500,
    replications=300,
    seed=707,
    gamma_grid=tuple(np.linspace(0.05, 0.9, 10).tolist()),
)


def test_criterion_07_coverage_dependent():
    start = time.perf_counter()
    report = run_coverage(CRIT7_CONFIG)
    elapsed = time.perf_counter() - start
    ok = report.summary["coverage_two_sided"] >= 0.90 and elapsed < 300.0
    _report(7, "coverage on dependent heavy-tailed autoregression", ok,
            f"coverage {report.summary['coverage_two_sided']:.3f} over "
            f"{report.summary['replications']} "
            f"replications, {elapsed:.1f}s")


CRIT8_CONFIG = ExperimentConfig(
    generator=IidLinearRegression(theta_star=(0.3, -0.2),
                                  x_law=IsotropicGaussianX(1.0),
                                  noise=GaussianNoise(variance=0.04)),
    prior=IidSamplePrior(count=100, dim=2, scale=0.4, seed=303),
    loss=SquaredLoss(),
    p=2.0,
    delta=0.1,
    regime=VarianceRegime(s2="exact"),
    n=1000,
    replications=200,
    seed=808,
    gamma_grid=tuple(np.linspace(0.02, 0.8, 25).tolist()),
)


def test_criterion_08_oracle_rate():
    report = run_coverage(CRIT8_CONFIG)
    certified = [r["complexity_certified"] for r in report.records]
    assert all(certified), "exponent must certify in every replication for this check"
    hits = [r for r in report.records if r["hit_two_sided"]]
    assert hits, "no replication satisfied the two-sided event"
    violations = [r["rho_hat_true_integral"] - r["oracle_dim_bound"] for r in hits]
    worst = max(violations)
    ok = worst <= 0.0
    _report(8, "oracle rate under the certified exponent", ok,
            f"{len(hits)} qualifying replications, worst violation {worst:.2e}")


def test_criterion_09_rate_shape():
    import dataclasses
    base = dataclasses.replace(CRIT6_CONFIG, replications=50, seed=909)
    values = [100, 400, 1600, 6400]
    rows = run_sweep(base, "n", values).records
    slope = fit_loglog_slope(values, [row["median_margin"] for row in rows])
    ok = -0.6 <= slope <= -0.4
    _report(9, "margin rate in n", ok, f"log-log slope {slope:.4f}")


def _estimate_runs(config: ExperimentConfig, runs: int = 50, reps: int = 500) -> tuple[int, float, float]:
    atoms, pi = build_prior(config.prior, config.seed)
    true_values = true_risk_closed_form(config.generator, atoms, config.loss)
    cfg, _ = resolve_moment(config, atoms, pi)
    passed = 0
    last_estimate = 0.0
    for run in range(runs):
        # One stacked draw of the run's datasets, the next reps of the seed's
        # stream; E_pi |R - r_n|**q per dataset is the sum of the two one-sided
        # deviation moments.
        data = generate(config.generator, config.n, config.seed,
                        range(run * reps, (run + 1) * reps))
        upper, lower = deviation_moments(true_values - empirical_risks(data, atoms, config.loss),
                                         pi, cfg.q)
        last_estimate = float(np.mean(upper + lower))
        passed += last_estimate <= cfg.moment.value
    return passed, last_estimate, cfg.moment.value


def test_criterion_10_moment_bound_validity():
    prior20 = IidSamplePrior(count=20, dim=2, scale=0.6, seed=404)
    shared = dict(n=200, replications=50, seed=111, gamma_grid=(0.1, 0.5))
    configs = {
        "iid_variance": ExperimentConfig(
            generator=CRIT6_CONFIG.generator, prior=prior20, loss=SquaredLoss(),
            p=2.0, delta=0.1, regime=VarianceRegime(s2="kappa"),
            **shared),
        "subgaussian": ExperimentConfig(
            generator=BoundedClassification(theta_star=(1.0, -0.5),
                                            x_law=IsotropicGaussianX(1.0),
                                            flip_prob=0.1),
            prior=prior20, loss=ZeroOneLoss(), p=2.0, delta=0.1,
            regime=SubGaussianRegime(sigma2=0.25, q=4.0), **shared),
        "mixing_bounded": ExperimentConfig(
            generator=AR1(a=0.5, noise=GaussianNoise(variance=1.0),
                          mixing=MixingBoundSpec(c1=0.5, c2=math.log(2.0))),
            prior=prior20, loss=ZeroOneLoss(), p=2.0, delta=0.1,
            regime=MixingBoundedRegime(), **shared),
        "mixing_unbounded": ExperimentConfig(
            generator=CRIT7_CONFIG.generator, prior=prior20, loss=SquaredLoss(),
            p=2.0, delta=0.1,
            regime=MixingUnboundedRegime(r=3.0, s=3.0), **shared),
    }
    details = []
    all_ok = True
    for name, config in configs.items():
        passed, estimate, bound = _estimate_runs(config)
        frac = passed / 50.0
        all_ok = all_ok and frac >= 0.99
        details.append(f"{name}: {passed}/50 (last estimate {estimate:.3e} "
                       f"vs bound {bound:.3e})")
    _report(10, "empirical moments below theoretical bounds", all_ok, "; ".join(details))


def test_criterion_11_finite_class_subgaussian_path():
    size, delta, n, sigma2 = 10, 0.05, 200, 0.25
    config = ExperimentConfig(
        generator=BoundedClassification(theta_star=(1.0, -0.5),
                                        x_law=IsotropicGaussianX(1.0),
                                        flip_prob=0.1),
        prior=IidSamplePrior(count=size, dim=2, scale=1.0, seed=505),
        loss=ZeroOneLoss(),
        p=2.0,
        delta=delta,
        regime=SubGaussianRegime(sigma2=sigma2, optimize_q=True),
        n=n,
        replications=500,
        seed=1010,
        gamma_grid=(0.1, 0.5),
    )
    cfg, _ = resolve_moment(config, *build_prior(config.prior, config.seed))
    margin = pac_margin(cfg, divergence_plus_one_uniform(
        DiscreteDistribution(np.eye(size)[0]), size, cfg.p))
    oracle = optimized_erm_margin(sigma2, n, size, delta)
    formula_err = abs(margin - oracle)

    report = run_coverage(config)
    pipeline_margin = report.records[0]["margin_erm"]
    pipeline_err = abs(pipeline_margin - oracle)
    ok = (formula_err <= 1e-10 and pipeline_err <= 1e-10
          and report.summary["coverage_erm"] >= 0.90)
    _report(11, "finite-class sub-Gaussian route", ok,
            f"margin err {formula_err:.2e}, pipeline err {pipeline_err:.2e}, "
            f"ERM coverage {report.summary['coverage_erm']:.3f}")
