"""Risk-certificate evaluation and optimal aggregation over a discrete prior.

The two-sided certificate for an aggregation distribution rho is

    | integral(R d rho) - integral(r_n d rho) |
        <= (M / delta)**(1/q) * (D(rho, pi) + 1)**(1/p)

with conjugate exponents 1/p + 1/q = 1 and D the power-family f-divergence.
The distribution minimizing the observable side has density proportional to
[rbar - r_n]_+ ** (1/(p-1)) against the prior, where rbar is the smallest
level at which the prior integral of [rbar - r_n]_+ ** q spends the whole
moment budget M/delta; the minimized objective equals rbar itself.

The oracle inequality bounds a level by min + 2 * T**(1/(q+d)), T the spent
budget: M/delta for the sample level rbar and 2**q * M/delta for the
population level. Both go through :func:`oracle_bound`, and
:func:`certified_oracle` reports it only where the proof holds: the
sublevel-mass exponent d certifies on the gamma grid, and the proof point
gamma = (level - min)/2 lies inside the grid's gamma interval with sublevel
mass at least gamma**d.

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
MOMENT_Q_TOL = 1e-9
RBAR_RESIDUAL_TOL = 1e-10
RBAR_MAX_ITER = 200
RBAR_LAST_BIT_STEPS = 4  # doubles walked toward the last-bit root
COMPLEXITY_CAP = 64.0
COMPLEXITY_RESOLUTION = 1e-3


class SolverError(RuntimeError):
    """Root solve failed to reach its residual tolerance."""


@dataclass(frozen=True)
class BoundConfig:
    """Exponent pair, confidence level and certified moment bound.

    ``q`` defaults to the conjugate p/(p-1); an explicitly supplied q must
    agree with it, and must match the exponent stored in the moment bound.
    """

    p: float
    delta: float
    moment: MomentBound
    q: float | None = None

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("p must exceed 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        q = self.p / (self.p - 1.0) if self.q is None else self.q
        object.__setattr__(self, "q", float(q))
        if abs(1.0 / self.p + 1.0 / self.q - 1.0) > CONJUGACY_TOL:
            raise ValueError("p and q must be conjugate: 1/p + 1/q = 1")
        if abs(self.moment.q - self.q) > MOMENT_Q_TOL:
            raise ValueError(
                f"moment bound was certified at q={self.moment.q}, config uses q={self.q}"
            )

    @classmethod
    def from_q(cls, q: float, delta: float, moment: MomentBound) -> "BoundConfig":
        if not q > 1:
            raise ValueError("q must exceed 1")
        return cls(p=q / (q - 1.0), delta=delta, moment=moment, q=q)

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
    """Certified sublevel-mass exponent over a gamma interval.

    ``d`` is the smallest exponent (at resolution 1e-3) such that the prior
    mass of every {values <= min + gamma} sublevel on the grid is at least
    gamma**d; any larger exponent is then certified as well since the grid
    lies in (0, 1). Degenerate inputs whose sublevel mass is already 1
    everywhere certify every exponent and report the cap. ``satisfied`` is
    False when no exponent up to the cap works.
    """

    d: float
    gamma_interval: tuple[float, float]
    satisfied: bool


def pac_margin(cfg: BoundConfig, div_plus_one: float | np.ndarray) -> float | np.ndarray:
    """(M / delta)**(1/q) * (D + 1)**(1/p), elementwise; infinity propagates."""
    div_plus_one = np.asarray(div_plus_one, dtype=float)
    if (div_plus_one < 1.0 - CONJUGACY_TOL).any():
        raise ValueError("divergence-plus-one must be at least 1")
    return cfg.budget ** (1.0 / cfg.q) * np.maximum(div_plus_one, 1.0) ** (1.0 / cfg.p)


def certificate(rn_integral: float, div_plus_one: float, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate at a known r_n integral and D + 1."""
    margin = float(pac_margin(cfg, div_plus_one))
    return BoundReport(rn_integral=rn_integral, margin=margin, upper=rn_integral + margin,
                       lower=rn_integral - margin, divergence_plus_one=div_plus_one)


def evaluate_bound(rho: DiscreteDistribution, pi: DiscreteDistribution,
                   rn: np.ndarray, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate for a fixed aggregation distribution."""
    rn = np.asarray(rn, dtype=float)
    if len(rho) != len(pi) or rn.shape[0] != len(pi):
        raise ValueError("rho, pi and the risk vector must share one atom set")
    return certificate(expectation(rho, rn),
                       float(power_divergence_plus_one(rho.weights, pi.weights, cfg.p)), cfg)


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


def solve_rbar(rn: np.ndarray, pi: DiscreteDistribution, q: float,
               moment_value: float, delta: float) -> float:
    """Smallest level u with s(u) = sum_j pi_j [u - rn_j]_+ ** q = M / delta =: T.

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
    if moment_value <= 0:
        raise ValueError("moment bound must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if not q > 1:
        raise ValueError("q must exceed 1")
    support = pi.weights > 0
    risks, weights = rn[support], pi.weights[support]
    if np.any(np.isnan(risks) | (risks == -np.inf)):
        raise ValueError("risks on prior-supported atoms must not be NaN or -inf")
    if not np.any(np.isfinite(risks)):
        raise ValueError("all prior mass sits on atoms with non-finite risk")
    target = moment_value / delta
    order = np.argsort(risks)
    risks, weights = risks[order], weights[order]
    mass = np.cumsum(weights)
    u = float(np.min(np.cumsum(weights * risks) / mass + (target / mass) ** (1.0 / q)))
    step = 0.0
    for _ in range(RBAR_MAX_ITER):
        u -= step
        gaps = u - risks[:np.searchsorted(risks, u)]
        powered = gaps ** (q - 1.0)
        spend = float(weights[:gaps.size] @ (powered * gaps))
        slope = float(weights[:gaps.size] @ powered)  # s'(u) / q
        # (g - T ** (1/q)) / g', with g' = s ** (1/q - 1) * slope
        step = (spend - target ** (1 / q) * spend ** (1 - 1 / q)) / slope if slope > 0 else 0.0
        if not u - step < u:
            break
    residual = abs(spend - target)
    if residual <= RBAR_RESIDUAL_TOL * target:
        return u

    def spend_at(level: float) -> float:
        gaps = level - risks[:np.searchsorted(risks, level)]
        return float(weights[:gaps.size] @ (gaps ** (q - 1.0) * gaps))

    toward = np.inf if spend < target else -np.inf
    for _ in range(RBAR_LAST_BIT_STEPS):
        if spend >= target > spend_at(float(np.nextafter(u, -np.inf))):
            return u
        u = float(np.nextafter(u, toward))
        spend = spend_at(u)
    raise SolverError(f"level solve did not reach residual tolerance: residual "
                      f"{residual:.3e} vs target {target:.3e}")


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


def optimal_gamma(d: float, p: float, moment_value: float, delta: float) -> float:
    """Width minimizing the sublevel-restriction bound.

    gamma = (d (1 - 1/p) M / delta) ** (1 / (1 + d (1 - 1/p))).
    """
    if d <= 0 or p <= 1 or moment_value <= 0 or not 0 < delta < 1:
        raise ValueError("need d > 0, p > 1, M > 0 and delta in (0, 1)")
    exponent_weight = d * (1.0 - 1.0 / p)
    return (exponent_weight * moment_value / delta) ** (1.0 / (1.0 + exponent_weight))


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
    interval = (float(grid[0]), float(grid[-1]))
    floor = values.min()
    masses = np.array([float(pi.weights[values <= floor + g].sum()) for g in grid])
    if np.any(masses <= 0.0):
        return ComplexityEstimate(COMPLEXITY_CAP, interval, False)
    binding = masses < 1.0
    if not np.any(binding):
        # Full mass at every grid point: every exponent works.
        return ComplexityEstimate(COMPLEXITY_CAP, interval, True)
    threshold = float(np.max(np.log(masses[binding]) / np.log(grid[binding])))
    d = COMPLEXITY_RESOLUTION * max(1, math.ceil(threshold / COMPLEXITY_RESOLUTION))
    while d <= COMPLEXITY_CAP and not np.all(masses >= grid**d):
        d += COMPLEXITY_RESOLUTION
    if d > COMPLEXITY_CAP:
        return ComplexityEstimate(COMPLEXITY_CAP, interval, False)
    return ComplexityEstimate(d, interval, True)


def oracle_bound(r_min: float, moment_value: float, delta: float, q: float, d: float) -> float:
    """min r + 2 * (M / delta) ** (1 / (q + d)); pass 2**q * M for the population level."""
    if moment_value <= 0 or not 0 < delta < 1 or q <= 1 or d < 0:
        raise ValueError("invalid oracle-bound inputs")
    return r_min + 2.0 * (moment_value / delta) ** (1.0 / (q + d))


def certified_oracle(values: np.ndarray, pi: DiscreteDistribution, gamma_grid: np.ndarray,
                     level: float, moment_value: float, delta: float,
                     q: float) -> tuple[ComplexityEstimate, float | None]:
    """Sublevel-mass exponent of ``values`` and the oracle bound on ``level``.

    The bound is certified, and returned, only when the exponent d certifies
    on the grid and the proof point gamma = (level - min) / 2 lies inside the
    grid's gamma interval with sublevel mass at least gamma**d (the grid is
    checked only at its points); it is None otherwise. ``level`` is the solve
    of ``values`` at the same ``moment_value`` and ``delta``, so its spend
    T >= mass(gamma) * gamma**q >= gamma**(q + d) gives level <= the bound.
    """
    complexity = verify_complexity(values, pi, gamma_grid)
    values = np.asarray(values, dtype=float)
    floor = float(values.min())
    gamma = (level - floor) / 2.0
    lo, hi = complexity.gamma_interval
    if not (complexity.satisfied and lo <= gamma <= hi
            and pi.weights[values <= floor + gamma].sum() >= gamma ** complexity.d):
        return complexity, None
    return complexity, oracle_bound(floor, moment_value, delta, q, complexity.d)
