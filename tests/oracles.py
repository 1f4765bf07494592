"""Independent reference computations that the tests compare the package against."""

import math

import numpy as np

from hostile_pac.aggregation import BoundConfig, evaluate_bound, rho_hat, solve_rbar
from hostile_pac.datagen import AR1, GeneratorSpec, _draw_noise, generate
from hostile_pac.param_space import AtomSet, DiscreteDistribution
from hostile_pac.risk import Dataset, LossKind, compute_loss_table

MA_TRUNCATION_TOL = 1e-16  # tail mass cutoff for exact stationary sampling


def divergence_plus_one_uniform(rho: DiscreteDistribution, size: int, p: float) -> float:
    """Closed form K**(p-1) * sum_j rho_j**p for a uniform reference measure.

    Equals ``f_divergence(rho, uniform, PhiP(p)) + 1`` and serves as its
    independent check.
    """
    if p <= 1:
        raise ValueError("requires p > 1")
    if len(rho) != size:
        raise ValueError("distribution size does not match the uniform reference")
    return float(size ** (p - 1.0) * np.sum(rho.weights**p))


def minimized_objective_identity(rn: np.ndarray, pi: DiscreteDistribution,
                                 cfg: BoundConfig) -> tuple[float, DiscreteDistribution, float]:
    """Solve for the level, build the optimal weights, and evaluate them.

    Returns ``(rbar, rho, objective)`` where the objective is the upper
    certificate at rho; it coincides with rbar up to solver precision.
    """
    rbar = solve_rbar(rn, pi, cfg.q, cfg.moment.value, cfg.delta)
    rho = rho_hat(rn, pi, cfg.p, rbar)
    objective = evaluate_bound(rho, pi, rn, cfg).upper
    return rbar, rho, objective


def stationary_pairs(spec: AR1, n: int, rng: np.random.Generator) -> Dataset:
    """Independent draws of consecutive stationary pairs (y_lag, y).

    The lag is sampled exactly through the truncated moving-average
    representation; the truncation error is below machine precision.
    """
    if spec.a == 0.0:
        lag = _draw_noise(spec.noise, n, rng)
    else:
        depth = int(math.ceil(math.log(MA_TRUNCATION_TOL) / math.log(abs(spec.a))))
        lag = np.zeros(n)
        coeff = 1.0
        for _ in range(depth):
            lag += coeff * _draw_noise(spec.noise, n, rng)
            coeff *= spec.a
    y = spec.a * lag + _draw_noise(spec.noise, n, rng)
    return Dataset(x=np.column_stack([np.ones(n), lag]), y=y)


def true_risk_mc(spec: GeneratorSpec, atoms: AtomSet, loss: LossKind,
                 draws: int, seed: int | None,
                 chunk: int = 100_000) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo risk per atom with its standard error, chunked for memory.

    AR(1) risks are estimated from independent stationary pairs rather than a
    single dependent path, so the i.i.d. standard-error formula is honest.
    """
    if draws < 2:
        raise ValueError("need at least 2 draws")
    rng = np.random.default_rng(seed)
    total = np.zeros(len(atoms))
    total_sq = np.zeros(len(atoms))
    remaining = draws
    while remaining > 0:
        m = min(chunk, remaining)
        if isinstance(spec, AR1):
            data = stationary_pairs(spec, m, rng)
        else:
            sub_seed = int(rng.integers(0, 2**63 - 1))
            data = generate(spec, m, sub_seed)
        table = compute_loss_table(data, atoms, loss).losses
        total += table.sum(axis=0)
        total_sq += (table**2).sum(axis=0)
        remaining -= m
    mean = total / draws
    var = np.maximum(total_sq / draws - mean**2, 0.0)
    return mean, np.sqrt(var / draws)
