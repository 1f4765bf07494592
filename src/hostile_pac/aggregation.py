"""Risk-certificate evaluation and optimal aggregation over a discrete prior.

The two-sided certificate for an aggregation distribution rho is

    | integral(R d rho) - integral(r_n d rho) |
        <= (M / delta)**(1/q) * (D(rho, pi) + 1)**(1/p)

with conjugate exponents 1/p + 1/q = 1 and D the power-family f-divergence.
The distribution minimizing the observable side has density proportional to
[rbar - r_n]_+ ** (1/(p-1)) against the prior, where rbar is the smallest
level at which the prior integral of [rbar - r_n]_+ ** q spends the whole
moment budget M/delta; the minimized objective equals rbar itself.

Every solve and bound below takes that budget T = M/delta, formed once in
:attr:`BoundConfig.budget` (the population level spends 2**q * M/delta). The
oracle inequality bounds a level by min + 2 * T**(1/(q+d)), through
:func:`oracle_bound`, and :func:`certified_oracle` reports it only where the
proof holds: the sublevel-mass exponent d certifies on the gamma grid, and
the proof point gamma = (level - min)/2 lies inside the grid's gamma
interval with sublevel mass at least gamma**d.

An infinite divergence is propagated, not raised: the certificate is then
vacuous but valid, and sweep outputs stay rectangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import power_divergence_plus_one
from .moments import MomentBound
from .param_space import DiscreteDistribution, expectation

CONJUGACY_TOL = 1e-12
RBAR_RESIDUAL_TOL = 1e-10
RBAR_MAX_ITER = 200
RBAR_LAST_BIT_STEPS = 4  # doubles walked toward the last-bit root
COMPLEXITY_CAP = 64.0
COMPLEXITY_RESOLUTION = 1e-3


class SolverError(RuntimeError):
    """Root solve failed to reach its residual tolerance."""


@dataclass(frozen=True)
class BoundConfig:
    """Exponent p, confidence level and certified moment bound.

    q is the moment bound's, and p must be its conjugate. p is stored because
    q/(q-1) need not give p back: p = 4 returns 4.000000000000001.
    """

    p: float
    delta: float
    moment: MomentBound

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > CONJUGACY_TOL:
            raise ValueError(f"p={self.p} and the moment bound's q={self.q} are not conjugate")

    @property
    def q(self) -> float:
        return self.moment.q

    @property
    def budget(self) -> float:
        """The spent moment budget M / delta."""
        return self.moment.value / self.delta


@dataclass(frozen=True)
class BoundReport:
    """Evaluated certificate pieces for one aggregation distribution."""

    rn_integral: float
    margin: float
    upper: float
    lower: float
    divergence_plus_one: float


@dataclass(frozen=True)
class ComplexityEstimate:
    """Certified sublevel-mass exponent on a gamma grid.

    ``d`` is the smallest exponent (at resolution 1e-3) such that the prior
    mass of every {values <= min + gamma} sublevel on the grid is at least
    gamma**d; any larger exponent is then certified as well since the grid
    lies in (0, 1). Degenerate inputs whose sublevel mass is already 1
    everywhere certify every exponent and report the cap. ``satisfied`` is
    False when no exponent up to the cap works.
    """

    d: float
    satisfied: bool


def pac_margin(cfg: BoundConfig, div_plus_one: float) -> float:
    """(M / delta)**(1/q) * (D + 1)**(1/p) at one D + 1; infinity propagates."""
    if not div_plus_one >= 1.0 - CONJUGACY_TOL:  # NaN fails too
        raise ValueError("divergence-plus-one must be at least 1")
    return cfg.budget ** (1.0 / cfg.q) * max(div_plus_one, 1.0) ** (1.0 / cfg.p)


def certificate(rn_integral: float, div_plus_one: float, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate at a known r_n integral and D + 1."""
    margin = pac_margin(cfg, div_plus_one)
    return BoundReport(rn_integral=rn_integral, margin=margin, upper=rn_integral + margin,
                       lower=rn_integral - margin, divergence_plus_one=div_plus_one)


def evaluate_bound(rho: DiscreteDistribution, pi: DiscreteDistribution,
                   rn: np.ndarray, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate for a fixed aggregation distribution."""
    rn = np.asarray(rn, dtype=float)
    if len(rho) != len(pi) or rn.shape[0] != len(pi):
        raise ValueError("rho, pi and the risk vector must share one atom set")
    return certificate(expectation(rho, rn),
                       power_divergence_plus_one(rho.weights, pi.weights, cfg.p), cfg)


def deviation_moments(gap: np.ndarray, pi_weights: np.ndarray, q: float) -> tuple[float, float]:
    """(E_pi gap_+**q, E_pi gap_-**q) for the per-atom gap R - r_n.

    By Hoelder duality in L^p(pi), sup over all rho of
    |E_rho gap| / (D(rho, pi) + 1)**(1/p) is the q-th root of the larger
    of the two, attained at rho proportional to pi * gap_+**(q-1) or
    pi * gap_-**(q-1). So the certificate holds for every rho at once
    exactly when that larger moment is at most M/delta.
    """
    return (float(pi_weights @ np.maximum(gap, 0.0) ** q),
            float(pi_weights @ np.maximum(-gap, 0.0) ** q))


def solve_rbar(rn: np.ndarray, pi: DiscreteDistribution, q: float, budget: float) -> float:
    """Smallest level u with s(u) = sum_j pi_j [u - rn_j]_+ ** q = T, the budget.

    Newton on g = s ** (1/q), the weighted L^q norm of [u - rn]_+: convex, and
    increasing above the supported minimum of rn. With W_k and m_k the mass and
    pi-mean of the k lowest supported atoms, Jensen gives
    s(u) >= W_k [u - m_k]_+ ** q, so each m_k + (T / W_k) ** (1/q) lies at or
    above the root; the least is the start. Tangents of the convex g lie below
    it, so the iterates fall monotonically onto the root without passing it,
    and the solve stops at the first step that no longer decreases the
    iterate. Atoms with infinite risk never spend. The iterate is accepted when
    its spend is within ``RBAR_RESIDUAL_TOL`` of T, or when it is the root to
    the last bit: s(u) >= T > s(u-), u- the next double below u. A level a
    hair above the lowest risks may meet only the second test; since rounding
    can stop the iterate a double or two off that root, up to
    ``RBAR_LAST_BIT_STEPS`` neighbouring doubles toward it are tried too.
    """
    rn = np.asarray(rn, dtype=float)
    if rn.shape[0] != len(pi):
        raise ValueError("risk vector and prior sizes differ")
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if not q > 1:
        raise ValueError("q must exceed 1")
    support = pi.weights > 0
    risks, weights = rn[support], pi.weights[support]
    if np.any(np.isnan(risks) | (risks == -np.inf)):
        raise ValueError("risks on prior-supported atoms must not be NaN or -inf")
    if not np.any(np.isfinite(risks)):
        raise ValueError("all prior mass sits on atoms with non-finite risk")
    order = np.argsort(risks)
    risks, weights = risks[order], weights[order]
    mass = np.cumsum(weights)

    def spend_and_slope(level: float) -> tuple[float, float]:  # s(level), s'(level) / q
        gaps = level - risks[:np.searchsorted(risks, level)]
        powered = gaps ** (q - 1.0)
        return float(weights[:gaps.size] @ (powered * gaps)), float(weights[:gaps.size] @ powered)

    u = float(np.min(np.cumsum(weights * risks) / mass + (budget / mass) ** (1.0 / q)))
    step = 0.0
    for _ in range(RBAR_MAX_ITER):
        u -= step
        spend, slope = spend_and_slope(u)
        # (g - T ** (1/q)) / g', with g' = s ** (1/q - 1) * slope
        step = (spend - budget ** (1 / q) * spend ** (1 - 1 / q)) / slope if slope > 0 else 0.0
        if not u - step < u:
            break
    residual = abs(spend - budget)
    if residual <= RBAR_RESIDUAL_TOL * budget:
        return u
    toward = np.inf if spend < budget else -np.inf
    for _ in range(RBAR_LAST_BIT_STEPS):
        if spend >= budget > spend_and_slope(float(np.nextafter(u, -np.inf)))[0]:
            return u
        u = float(np.nextafter(u, toward))
        spend = spend_and_slope(u)[0]
    raise SolverError(f"level solve did not reach residual tolerance: residual "
                      f"{residual:.3e} vs budget {budget:.3e}")


def rho_hat(rn: np.ndarray, pi: DiscreteDistribution, p: float,
            rbar: float) -> DiscreteDistribution:
    """Optimal weights, proportional to pi_j * [rbar - rn_j]_+ ** (1/(p-1)).

    Atoms at or above the level get exactly zero mass, so the support is
    contained in {rn < rbar}.
    """
    rn = np.asarray(rn, dtype=float)
    if rn.shape[0] != len(pi):
        raise ValueError("risk vector and prior sizes differ")
    raw = pi.weights * np.maximum(rbar - rn, 0.0) ** (1.0 / (p - 1.0))
    total = raw.sum()
    if not total > 0:
        raise ValueError("degenerate level: no prior mass below rbar")
    return DiscreteDistribution(raw / total)


def catoni_pi_gamma(rn: np.ndarray, pi: DiscreteDistribution,
                    gamma: float) -> DiscreteDistribution:
    """Prior restricted to the gamma-sublevel of rn, renormalized."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    rn = np.asarray(rn, dtype=float)
    if rn.shape[0] != len(pi):
        raise ValueError("risk vector and prior sizes differ")
    keep = rn <= rn.min() + gamma
    raw = pi.weights * keep
    total = raw.sum()
    if not total > 0:
        raise ValueError("sublevel set carries no prior mass")
    return DiscreteDistribution(raw / total)


def optimal_gamma(d: float, p: float, budget: float) -> float:
    """Width minimizing the sublevel-restriction bound.

    gamma = (d (1 - 1/p) T) ** (1 / (1 + d (1 - 1/p))), T the budget.
    """
    if d <= 0 or p <= 1 or not 0 < budget < math.inf:
        raise ValueError("need d > 0, p > 1 and a positive finite budget T")
    exponent_weight = d * (1.0 - 1.0 / p)
    return (exponent_weight * budget) ** (1.0 / (1.0 + exponent_weight))


def erm_index(rn: np.ndarray) -> int:
    """Index of the smallest empirical risk; ties go to the smallest index."""
    rn = np.asarray(rn, dtype=float)
    if rn.size == 0:
        raise ValueError("empty risk vector")
    return int(np.argmin(rn))


def verify_complexity(values: np.ndarray, pi: DiscreteDistribution,
                      gamma_grid: np.ndarray) -> ComplexityEstimate:
    """Certify a sublevel-mass exponent d on a gamma grid inside (0, 1).

    For each grid point the prior mass of {values <= min + gamma} must be at
    least gamma**d. The certified d is the feasibility threshold rounded up
    to ``COMPLEXITY_RESOLUTION`` (validity is monotone in d on (0, 1) grids);
    when the threshold exceeds ``COMPLEXITY_CAP`` the estimate is meaningless
    for a discrete prior and the check reports unsatisfied.
    """
    grid = np.sort(np.asarray(gamma_grid, dtype=float).ravel())
    if grid.size == 0:
        raise ValueError("gamma grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("gamma grid must lie strictly inside (0, 1)")
    values = np.asarray(values, dtype=float)
    if values.shape[0] != len(pi):
        raise ValueError("value vector and prior sizes differ")
    floor = values.min()
    masses = np.array([float(pi.weights[values <= floor + g].sum()) for g in grid])
    if np.any(masses <= 0.0):
        return ComplexityEstimate(COMPLEXITY_CAP, False)
    binding = masses < 1.0
    if not np.any(binding):
        # Full mass at every grid point: every exponent works.
        return ComplexityEstimate(COMPLEXITY_CAP, True)
    threshold = float(np.max(np.log(masses[binding]) / np.log(grid[binding])))
    d = COMPLEXITY_RESOLUTION * max(1, math.ceil(threshold / COMPLEXITY_RESOLUTION))
    while d <= COMPLEXITY_CAP and not np.all(masses >= grid**d):
        d += COMPLEXITY_RESOLUTION
    if d > COMPLEXITY_CAP:
        return ComplexityEstimate(COMPLEXITY_CAP, False)
    return ComplexityEstimate(d, True)


def oracle_bound(r_min: float, budget: float, q: float, d: float) -> float:
    """min r + 2 * T ** (1 / (q + d)), T the budget spent by the bounded level."""
    if not 0 < budget < math.inf or q <= 1 or d < 0:
        raise ValueError("invalid oracle-bound inputs")
    return r_min + 2.0 * budget ** (1.0 / (q + d))


def certified_oracle(values: np.ndarray, pi: DiscreteDistribution, gamma_grid: np.ndarray,
                     level: float, budget: float,
                     q: float) -> tuple[ComplexityEstimate, float | None]:
    """Sublevel-mass exponent of ``values`` and the oracle bound on ``level``.

    The bound is certified, and returned, only when the exponent d certifies
    on the grid and the proof point gamma = (level - min) / 2 lies inside the
    grid's gamma interval with sublevel mass at least gamma**d (the grid is
    checked only at its points); it is None otherwise. ``level`` is the solve
    of ``values`` at the same budget T, so T >= mass(gamma) * gamma**q >=
    gamma**(q + d) gives level <= the bound.
    """
    complexity = verify_complexity(values, pi, gamma_grid)
    values = np.asarray(values, dtype=float)
    floor = float(values.min())
    bound = oracle_bound(floor, budget, q, complexity.d)  # checks T and q even if uncertified
    gamma = (level - floor) / 2.0
    if not (complexity.satisfied and min(gamma_grid) <= gamma <= max(gamma_grid)
            and pi.weights[values <= floor + gamma].sum() >= gamma ** complexity.d):
        return complexity, None
    return complexity, bound
