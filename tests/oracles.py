"""Independent reference computations that the tests compare the package against."""

import math

import numpy as np
from scipy import integrate

from hostile_pac.aggregation import (COMPLEXITY_CAP, COMPLEXITY_RESOLUTION, RBAR_LAST_BIT_STEPS,
                                     RBAR_MAX_ITER, RBAR_RESIDUAL_TOL, BoundConfig,
                                     ComplexityEstimate, SolverError, evaluate_bound, rho_hat,
                                     solve_rbar)
from hostile_pac.datagen import (AR1, GaussianNoise, GeneratorSpec, _scale_noise, _unscaled_noise,
                                 generate, noise_moment)
from hostile_pac.param_space import AtomSet, DiscreteDistribution, _row_dots
from hostile_pac.risk import (Dataset, LossKind, SquaredLoss, ZeroOneLoss, compute_loss_table,
                              empirical_risk)

MA_TRUNCATION_TOL = 1e-16  # tail mass cutoff for exact stationary sampling


def divergence_plus_one_uniform(rho: DiscreteDistribution, size: int, p: float) -> float:
    """Closed form K**(p-1) * sum_j rho_j**p for a uniform reference measure.

    Equals ``power_divergence_plus_one`` against the uniform weights and
    serves as its independent check.
    """
    if p <= 1:
        raise ValueError("requires p > 1")
    if len(rho) != size:
        raise ValueError("distribution size does not match the uniform reference")
    return float(size ** (p - 1.0) * np.sum(rho.weights**p))


def divergence_plus_one_direct(rho: DiscreteDistribution, pi: DiscreteDistribution,
                               p: float) -> float:
    """The definition sum_j pi_j (rho_j / pi_j)**p of D + 1 for a pi of full support."""
    if not (pi.weights > 0).all():
        raise ValueError("requires pi of full support")
    return float(np.sum(pi.weights * (rho.weights / pi.weights) ** p))


def moment_estimate_by_table(tables: list[np.ndarray], true_values: np.ndarray,
                             pi: DiscreteDistribution, q: float) -> float:
    """The mean over tables of sum_j pi_j |r_n(theta_j) - R(theta_j)|**q, one
    weighted sum of |gap|**q per table."""
    return sum(float(pi.weights @ np.abs(empirical_risk(table) - true_values) ** q)
               for table in tables) / len(tables)


def optimized_erm_margin(sigma2: float, n: int, num_atoms: int, delta: float) -> float:
    """sqrt(2 e sigma2 log(2K/delta) / n), the margin at the optimized q."""
    if n < 1:
        raise ValueError("n must be positive")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * math.e * sigma2 * math.log(2.0 * num_atoms / delta) / n)


def minimized_objective_identity(rn: np.ndarray, pi: DiscreteDistribution,
                                 cfg: BoundConfig) -> tuple[float, np.ndarray, float]:
    """Solve for the level, build the optimal weights, and evaluate them, for
    one risk vector ``rn``.

    Returns ``(rbar, rho, objective)`` where rho is the weight vector and the
    objective is the upper certificate at rho; it coincides with rbar up to
    solver precision.
    """
    rbar = solve_rbar(rn[None], pi, cfg.q, cfg.budget)
    rho = rho_hat(rn[None], pi, cfg.p, rbar)
    objective = evaluate_bound(rho, pi, rn[None], cfg).upper
    return float(rbar[0]), rho[0], float(objective[0])


def stationary_pairs(spec: AR1, n: int, rng: np.random.Generator) -> Dataset:
    """Independent draws of consecutive stationary pairs (y_lag, y).

    The lag is sampled exactly through the truncated moving-average
    representation; the truncation error is below machine precision. With
    Gaussian innovations that sum is itself one normal draw at the summed
    variance v * sum_{j < depth} a**(2j).
    """
    depth = 1 if spec.a == 0.0 else int(
        math.ceil(math.log(MA_TRUNCATION_TOL) / math.log(abs(spec.a))))
    if isinstance(spec.noise, GaussianNoise):
        variance = spec.noise.variance * sum(spec.a ** (2 * j) for j in range(depth))
        lag = rng.normal(0.0, math.sqrt(variance), n)
    else:
        lag = np.zeros(n)
        coeff = 1.0
        for _ in range(depth):
            lag += coeff * _scale_noise(spec.noise, _unscaled_noise(spec.noise, n, rng))
            coeff *= spec.a
    y = spec.a * lag + _scale_noise(spec.noise, _unscaled_noise(spec.noise, n, rng))
    return Dataset(x=np.column_stack([np.ones(n), lag]), y=y)


def ar1_y_moments_hand(spec: AR1) -> tuple[float, float, float]:
    """Stationary E y**2, E y**4, E y**6 of AR(1), each identity expanded by hand.

    From y = a y_lag + eps in law with odd moments zero:
    m2 = e2 / (1 - a**2), m4 = (6 a**2 m2 e2 + e4) / (1 - a**4) and
    m6 = (15 a**4 m4 e2 + 15 a**2 m2 e4 + e6) / (1 - a**6).
    """
    a = spec.a
    e2, e4, e6 = (noise_moment(spec.noise, k) for k in (2, 4, 6))
    m2 = e2 / (1.0 - a**2)
    m4 = (6 * a**2 * m2 * e2 + e4) / (1.0 - a**4)
    return m2, m4, (15 * a**4 * m4 * e2 + 15 * a**2 * m2 * e4 + e6) / (1.0 - a**6)


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
        table = compute_loss_table(data, atoms, loss)
        total += table.sum(axis=0)
        total_sq += (table**2).sum(axis=0)
        remaining -= m
    mean = total / draws
    var = np.maximum(total_sq / draws - mean**2, 0.0)
    return mean, np.sqrt(var / draws)


def ar1_sign_risk_quad(spec: AR1, atoms: AtomSet, loss: ZeroOneLoss) -> np.ndarray:
    """Gaussian AR(1) zero-one risk per atom by adaptive quadrature over the lag z.

    Given z, y is N(a z, v), so the predicted label misses with probability
    P(y < 0) or P(y >= 0) on either side of the score's crossing. ``quad``
    misses an integrand that sits many lag standard deviations from the
    crossing, so compare only atoms whose crossing lies within a few of them.
    """
    a, sd = spec.a, math.sqrt(spec.noise.variance)
    lag_sd = sd / math.sqrt(1.0 - a**2)

    def risk_one(theta0: float, theta1: float) -> float:
        def integrand(z: float) -> float:
            p_pos = 0.5 * math.erfc(-a * z / (sd * math.sqrt(2.0)))
            miss = 1.0 - p_pos if theta0 + theta1 * z >= loss.threshold else p_pos
            return math.exp(-0.5 * (z / lag_sd) ** 2) / (lag_sd * math.sqrt(2 * math.pi)) * miss

        cuts = [-np.inf, np.inf] if theta1 == 0.0 else [
            -np.inf, (loss.threshold - theta0) / theta1, np.inf]
        return sum(integrate.quad(integrand, lo, hi, limit=200, epsabs=1e-14, epsrel=1e-12)[0]
                   for lo, hi in zip(cuts, cuts[1:]))

    return np.array([risk_one(t0, t1) for t0, t1 in atoms.coords])


# ---------------------------------------------------------------------------
# One-dataset references for the row-batched routines of the package
# ---------------------------------------------------------------------------

def empirical_risks_one(data: Dataset, atoms: AtomSet, loss: LossKind) -> np.ndarray:
    """r_n of every atom on one dataset: the least-squares anchor for the
    squared loss (``lstsq`` and the triangular factor), the table otherwise."""
    if not isinstance(loss, SquaredLoss):
        return empirical_risk(compute_loss_table(data, atoms, loss))
    theta0 = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
    e0 = data.y - data.x @ theta0
    fit = (atoms.coords - theta0) @ np.linalg.qr(data.x, mode="r").T
    return (e0 @ e0 + np.einsum("ij,ij->i", fit, fit)) / len(data)


def squared_risks_broadcast(x: np.ndarray, y: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The squared-loss r_n of stacked datasets from the triangular factor of
    [x | y], the fit broadcast as (rows, K, k) ``coords @ R_x^T - z`` and its
    squares summed by ``einsum`` over the last axis."""
    k = coords.shape[1]
    r = np.linalg.qr(np.concatenate([x, y[..., None]], axis=-1), mode="r")
    fit = coords @ r[:, :k, :k].swapaxes(-1, -2) - r[:, None, :k, k]
    rho = r[:, k:, k]
    return (np.einsum("ij,ij->i", rho, rho)[:, None]
            + np.einsum("ijk,ijk->ij", fit, fit)) / x.shape[1]


def squared_risks_one_qr(x: np.ndarray, y: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The squared-loss r_n of stacked datasets from one QR call on the whole
    stacked [x | y], the form ``risk.empirical_risks`` had before it factored
    a stack in chunks of rows; the fit is the same (rows, k, K) product."""
    r, k = np.linalg.qr(np.concatenate([x, y[..., None]], axis=-1), mode="r"), coords.shape[1]
    fit = r[:, :k, :k] @ coords.T
    fit -= r[:, :k, k:]
    rho = r[:, k:, k]
    risks = np.einsum("ijk,ijk->ik", fit, fit)
    risks += np.einsum("ij,ij->i", rho, rho)[:, None]
    risks /= x.shape[1]
    return risks


def solve_rbar_one(rn: np.ndarray, pi: DiscreteDistribution, q: float, budget: float) -> float:
    """The level solve on one risk vector: Newton from the lesser Jensen
    bracket of the finite supported atoms and of those tied at the minimum,
    each spend a dot product over the sorted supported atoms below the level,
    then the last-bit acceptance, one tangent step up and walk."""
    support = pi.weights > 0
    risks, weights = rn[support], pi.weights[support]
    order = np.argsort(risks)
    risks, weights = risks[order], weights[order]

    def spend_and_slope(level: float) -> tuple[float, float]:
        gaps = level - risks[:np.searchsorted(risks, level)]
        powered = gaps ** (q - 1.0)
        return float(weights[:gaps.size] @ (powered * gaps)), float(weights[:gaps.size] @ powered)

    finite, tied = np.isfinite(risks), risks == risks[0]
    mass, floor_mass = weights[finite].sum(), weights[tied].sum()
    with np.errstate(over="ignore"):
        u = min(float(weights[finite] @ risks[finite]) / mass + (budget / mass) ** (1.0 / q),
                risks[0] + (budget / floor_mass) ** (1.0 / q))
    step = 0.0
    for _ in range(RBAR_MAX_ITER):
        u -= step
        spend, slope = spend_and_slope(u)
        step = (spend - budget ** (1 / q) * spend ** (1 - 1 / q)) / slope if slope > 0 else 0.0
        if not u - step < u:
            break
    residual = abs(spend - budget)
    if residual <= RBAR_RESIDUAL_TOL * budget:
        return u
    if spend < budget and u < u - step < math.inf:  # one tangent step up, at or past the root
        u -= step
        spend = spend_and_slope(u)[0]
    toward = np.inf if spend < budget else -np.inf
    for _ in range(RBAR_LAST_BIT_STEPS):
        if spend >= budget > spend_and_slope(float(np.nextafter(u, -np.inf)))[0]:
            return u
        u = float(np.nextafter(u, toward))
        spend = spend_and_slope(u)[0]
    raise SolverError(f"residual {residual:.3e} vs budget {budget:.3e}")


def verify_complexity_one(values: np.ndarray, pi: DiscreteDistribution,
                          gamma_grid: np.ndarray) -> ComplexityEstimate:
    """Sublevel-mass exponent of one value vector: each mass a sum over the
    atoms of its sublevel, exactly 1 where no supported atom lies above it,
    the threshold rounded up, then stepped until every grid point holds."""
    grid = np.sort(np.asarray(gamma_grid, dtype=float).ravel())
    floor, top = values.min(), values[pi.weights > 0].max()
    binding = np.array([top > floor + g for g in grid])
    masses = np.array([float(pi.weights[values <= floor + g].sum()) if bind else 1.0
                       for g, bind in zip(grid, binding)])
    if np.any(masses <= 0.0):
        return ComplexityEstimate(COMPLEXITY_CAP, False)
    if not np.any(binding):
        return ComplexityEstimate(COMPLEXITY_CAP, True)
    threshold = float(np.max(np.log(masses[binding]) / np.log(grid[binding])))
    d = COMPLEXITY_RESOLUTION * max(1, math.ceil(threshold / COMPLEXITY_RESOLUTION))
    while d <= COMPLEXITY_CAP and not np.all(masses >= grid**d):
        d += COMPLEXITY_RESOLUTION
    if d > COMPLEXITY_CAP:
        return ComplexityEstimate(COMPLEXITY_CAP, False)
    return ComplexityEstimate(d, True)


def sublevel_masses_where(rows: np.ndarray, weights: np.ndarray,
                          gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sublevel masses and fullness with every selection an ``np.where``: the
    weights on {values <= min + gamma} and zeros elsewhere, summed in atom
    order, and the largest value over the supported atoms with -inf elsewhere."""
    levels = rows.min(axis=1)[:, None] + gammas
    masses = np.where(rows[:, None, :] <= levels[:, :, None], weights, 0.0).sum(axis=-1)
    full = np.where(weights > 0.0, rows, -np.inf).max(axis=1)[:, None] <= levels
    return np.where(full, 1.0, masses), full


# The chain's K-wide routines as they read before the fast paths: every row
# through a copy of its supported atoms, the mass and mean through masks, every
# power taken, and each (rows, K) step a new array. The fast paths must give
# these bits.

def _spend_and_slope_general(levels: np.ndarray, risks: np.ndarray, weights: np.ndarray,
                             q: float) -> tuple[np.ndarray, np.ndarray]:
    gaps = levels[:, None] - risks
    np.maximum(gaps, 0.0, out=gaps)
    powered = gaps ** (q - 1.0)
    slope = _row_dots(powered, weights)
    powered *= gaps
    return _row_dots(powered, weights), slope


def solve_rbar_general(rn: np.ndarray, pi: DiscreteDistribution, q: float,
                       budget: float) -> np.ndarray:
    """``solve_rbar`` with every supported atom taken by copy, the finite mass and
    mean by masks, and the power q - 1 taken at every q."""
    support = np.flatnonzero(pi.weights > 0)
    risks = rn.take(support, axis=1)
    lowest = risks.min(axis=1)
    weights, finite = pi.weights[support], np.isfinite(risks)
    mass = _row_dots(finite.astype(float), weights)
    tied = _row_dots((risks == lowest[:, None]).astype(float), weights)
    root = budget ** (1 / q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean = _row_dots(np.where(finite, risks, 0.0), weights) / mass
        u = np.minimum(mean + (budget / mass) ** (1 / q), lowest + (budget / tied) ** (1 / q))
        spend, step = np.zeros_like(u), np.zeros_like(u)
        live = np.ones(u.shape, dtype=bool)
        for _ in range(RBAR_MAX_ITER):
            np.subtract(u, step, out=u, where=live)
            row_spend, slope = _spend_and_slope_general(u, risks, weights, q)
            np.copyto(spend, row_spend, where=live)
            step = (row_spend - root * row_spend ** (1 - 1 / q)) / slope
            live &= u - step < u
            if not live.any():
                break
    for i in np.flatnonzero(~(np.abs(spend - budget) <= RBAR_RESIDUAL_TOL * budget)):
        def spend_at(level: float, i=i) -> float:
            return float(_spend_and_slope_general(np.array([level]), risks[i:i + 1], weights,
                                                  q)[0][0])
        v, s = u[i], spend[i]
        if s < budget and v < v - step[i] < math.inf:
            v -= step[i]
            s = spend_at(v)
        toward = np.inf if s < budget else -np.inf
        for _ in range(RBAR_LAST_BIT_STEPS):
            if s >= budget > spend_at(np.nextafter(v, -np.inf)):
                break
            v = float(np.nextafter(v, toward))
            s = spend_at(v)
        else:
            raise SolverError("level solve did not reach residual tolerance")
        u[i] = v
    return u


def rho_hat_general(rn: np.ndarray, pi: DiscreteDistribution, p: float, rbar) -> np.ndarray:
    """``rho_hat`` with the power 1/(p - 1) taken at every p, each step a new array."""
    raw = pi.weights * np.maximum(np.reshape(rbar, (-1, 1)) - rn, 0.0) ** (1.0 / (p - 1.0))
    return raw / raw.sum(axis=1, keepdims=True)


def power_divergence_plus_one_general(rho: np.ndarray, pi_weights: np.ndarray,
                                      p: float) -> np.ndarray:
    """D + 1 with the supported and unsupported atoms each taken by copy."""
    support = pi_weights > 0
    off_support = rho.take(np.flatnonzero(~support), axis=1).sum(axis=1) > 0
    rho, pi = rho.take(np.flatnonzero(support), axis=1), pi_weights[support]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rho ** p * pi ** (1.0 - p)
        overflow = ~np.isfinite(terms)
        if overflow.any():
            terms[overflow] = (pi * (rho / pi) ** p)[overflow]
    return np.where(off_support, np.inf, terms.sum(axis=1))


def deviation_moments_general(gap: np.ndarray, pi_weights: np.ndarray,
                              q: float) -> tuple[np.ndarray, np.ndarray]:
    """Both deviation moments, each side's positive part and power a new array."""
    return (_row_dots(np.maximum(gap, 0.0) ** q, pi_weights),
            _row_dots(np.maximum(-gap, 0.0) ** q, pi_weights))


def sublevel_masses_general(rows: np.ndarray, weights: np.ndarray,
                            gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sublevel masses with a new mask and a new product at every gamma."""
    levels = rows.min(axis=1)[:, None] + gammas
    masses = np.stack([((rows <= level[:, None]) * weights).sum(axis=-1) for level in levels.T],
                      axis=1)
    full = rows.max(axis=1, where=weights > 0.0, initial=-np.inf)[:, None] <= levels
    return np.where(full, 1.0, masses), full
