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
from .param_space import DiscreteDistribution

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
    """Evaluated certificate pieces for one aggregation distribution, or one
    array entry per row when the certificates are evaluated in rows."""

    rn_integral: float
    margin: float
    upper: float
    lower: float
    divergence_plus_one: float

    def row(self, i: int) -> BoundReport:
        """The certificate of row ``i`` of a report evaluated in rows."""
        return BoundReport(**{k: float(v[i]) for k, v in vars(self).items()})


@dataclass(frozen=True)
class ComplexityEstimate:
    """Certified sublevel-mass exponent on a gamma grid.

    ``d`` is the smallest exponent (at resolution 1e-3) such that the prior
    mass of every {values <= min + gamma} sublevel on the grid is at least
    gamma**d; any larger exponent is then certified as well since the grid
    lies in (0, 1). Degenerate inputs whose sublevels hold every supported
    atom at every grid point certify every exponent and report the cap.
    ``satisfied`` is False when no exponent is found up to the cap. For values
    given in rows, both fields are arrays with one entry per row.
    """

    d: float
    satisfied: bool

    def row(self, i: int) -> ComplexityEstimate:
        """The estimate of row ``i`` of an estimate made in rows."""
        return ComplexityEstimate(float(self.d[i]), bool(self.satisfied[i]))


def _rows(values) -> tuple[np.ndarray, bool]:
    """``values`` as float rows, one per dataset, and whether it was a single vector."""
    values = np.asarray(values, dtype=float)
    return np.atleast_2d(values), values.ndim == 1


def pac_margin(cfg: BoundConfig, div_plus_one) -> float | np.ndarray:
    """(M / delta)**(1/q) * (D + 1)**(1/p), elementwise over D + 1; infinity propagates."""
    div_plus_one = np.asarray(div_plus_one, dtype=float)
    if not (div_plus_one >= 1.0 - CONJUGACY_TOL).all():  # NaN fails too
        raise ValueError("divergence-plus-one must be at least 1")
    margin = cfg.budget ** (1.0 / cfg.q) * np.maximum(div_plus_one, 1.0) ** (1.0 / cfg.p)
    return float(margin) if margin.ndim == 0 else margin


def certificate(rn_integral, div_plus_one, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate at a known r_n integral and D + 1, elementwise."""
    margin = pac_margin(cfg, div_plus_one)
    return BoundReport(rn_integral=rn_integral, margin=margin, upper=rn_integral + margin,
                       lower=rn_integral - margin, divergence_plus_one=div_plus_one)


def evaluate_bound(rho: DiscreteDistribution | np.ndarray, pi: DiscreteDistribution,
                   rn: np.ndarray, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate for a fixed aggregation distribution.

    Given rows of r_n and one row of aggregation weights per row, the report
    holds one certificate per row.
    """
    rows, single = _rows(rn)
    weights = np.atleast_2d(rho.weights if isinstance(rho, DiscreteDistribution) else rho)
    if weights.shape != rows.shape or rows.shape[1] != len(pi):
        raise ValueError("rho, pi and the risk vector must share one atom set")
    report = certificate(_row_dots(weights, rows),
                         power_divergence_plus_one(weights, pi.weights, cfg.p), cfg)
    return report.row(0) if single else report


def deviation_moments(gap: np.ndarray, pi_weights: np.ndarray, q: float) -> tuple:
    """(E_pi gap_+**q, E_pi gap_-**q) for the per-atom gap R - r_n, per row of gaps.

    By Hoelder duality in L^p(pi), sup over all rho of
    |E_rho gap| / (D(rho, pi) + 1)**(1/p) is the q-th root of the larger
    of the two, attained at rho proportional to pi * gap_+**(q-1) or
    pi * gap_-**(q-1). So the certificate holds for every rho at once
    exactly when that larger moment is at most M/delta.
    """
    upper = np.maximum(gap, 0.0) ** q @ pi_weights
    lower = np.maximum(-gap, 0.0) ** q @ pi_weights
    return (float(upper), float(lower)) if np.ndim(upper) == 0 else (upper, lower)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _spend_and_slope(levels: np.ndarray, risks: np.ndarray, weights: np.ndarray,
                     q: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, s(level) and s'(level) / q over the row's atoms."""
    gaps = levels[:, None] - risks
    np.maximum(gaps, 0.0, out=gaps)
    powered = gaps ** (q - 1.0)
    slope = _row_dots(weights, powered)
    powered *= gaps
    return _row_dots(weights, powered), slope


def _last_bit_root(risks: np.ndarray, weights: np.ndarray, q: float, budget: float,
                   u: float, spend: float) -> float:
    """Accept ``u`` or a neighbouring double as the last-bit root of one row
    (``risks`` and ``weights`` of shape (1, K)), or raise SolverError."""
    def spend_at(level: float) -> float:
        return float(_spend_and_slope(np.array([level]), risks, weights, q)[0][0])

    residual = abs(spend - budget)
    toward = np.inf if spend < budget else -np.inf
    for _ in range(RBAR_LAST_BIT_STEPS):
        if spend >= budget > spend_at(np.nextafter(u, -np.inf)):
            return u
        u = float(np.nextafter(u, toward))
        spend = spend_at(u)
    raise SolverError(f"level solve did not reach residual tolerance: residual "
                      f"{residual:.3e} vs budget {budget:.3e}")


def solve_rbar(rn: np.ndarray, pi: DiscreteDistribution, q: float,
               budget: float) -> float | np.ndarray:
    """Smallest level u with s(u) = sum_j pi_j [u - rn_j]_+ ** q = T, the budget.

    Given rows of risks, one level per row (an array); given one risk vector,
    a float.

    Newton on g = s ** (1/q), the weighted L^q norm of [u - rn]_+: convex, and
    increasing above the supported minimum of rn. With W_k and m_k the mass and
    pi-mean of the k lowest supported atoms, Jensen gives
    s(u) >= W_k [u - m_k]_+ ** q, so each m_k + (T / W_k) ** (1/q) lies at or
    above the root; the least is the start (a bracket past the largest double
    is never the least). Each row is sorted once. Tangents of the convex g lie
    below it, so the iterates fall monotonically onto the root without
    passing it, and a row stops at the first step that no longer decreases its
    iterate; each iteration reads only the columns below the highest start.
    Atoms with infinite risk never spend. The iterate is accepted when its
    spend is within ``RBAR_RESIDUAL_TOL`` of T, or when it is the root to the
    last bit: s(u) >= T > s(u-), u- the next double below u. A level a hair
    above the lowest risks may meet only the second test; since rounding can
    stop the iterate a double or two off that root, up to
    ``RBAR_LAST_BIT_STEPS`` neighbouring doubles toward it are tried too.
    """
    rows, single = _rows(rn)
    if rows.shape[1] != len(pi):
        raise ValueError("risk vector and prior sizes differ")
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if not q > 1:
        raise ValueError("q must exceed 1")
    support = np.flatnonzero(pi.weights > 0)
    risks = rows.take(support, axis=1)
    lowest = risks.min(axis=1)  # NaN if a row holds one
    if not (lowest > -np.inf).all():
        raise ValueError("risks on prior-supported atoms must not be NaN or -inf")
    if not (lowest < np.inf).all():
        raise ValueError("all prior mass sits on atoms with non-finite risk")
    order = np.argsort(risks, axis=1)
    weights = pi.weights[support][order]
    risks = risks.take(order + risks.shape[1] * np.arange(len(risks))[:, None])
    mass = np.cumsum(weights, axis=1)
    root = budget ** (1 / q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = (np.cumsum(weights * risks, axis=1) / mass + (budget / mass) ** (1.0 / q)).min(axis=1)
        spend, step = np.zeros_like(u), np.zeros_like(u)
        live = np.ones(u.shape, dtype=bool)
        # The iterates only fall, so no row spends beyond the atoms below its start.
        width = int((risks < u[:, None]).sum(axis=1).max())
        for _ in range(RBAR_MAX_ITER):
            np.subtract(u, step, out=u, where=live)
            row_spend, slope = _spend_and_slope(u, risks[:, :width], weights[:, :width], q)
            np.copyto(spend, row_spend, where=live)
            # (g - T ** (1/q)) / g', with g' = s ** (1/q - 1) * slope; a row
            # whose level spends nothing has slope 0, a NaN step, and stops.
            step = (row_spend - root * row_spend ** (1 - 1 / q)) / slope
            live &= u - step < u
            if not live.any():
                break
    for i in np.flatnonzero(~(np.abs(spend - budget) <= RBAR_RESIDUAL_TOL * budget)):
        u[i] = _last_bit_root(risks[i:i + 1], weights[i:i + 1], q, budget, u[i], spend[i])
    return float(u[0]) if single else u


def rho_hat(rn: np.ndarray, pi: DiscreteDistribution, p: float,
            rbar) -> DiscreteDistribution | np.ndarray:
    """Optimal weights, proportional to pi_j * [rbar - rn_j]_+ ** (1/(p-1)).

    Atoms at or above the level get exactly zero mass, so the support is
    contained in {rn < rbar}. Given rows of risks and one level per row, the
    weights come back as rows of an array; given one risk vector, as a
    distribution.
    """
    rows, single = _rows(rn)
    if rows.shape[1] != len(pi):
        raise ValueError("risk vector and prior sizes differ")
    raw = pi.weights * np.maximum(np.reshape(rbar, (-1, 1)) - rows, 0.0) ** (1.0 / (p - 1.0))
    total = raw.sum(axis=1, keepdims=True)
    if not (total > 0).all():
        raise ValueError("degenerate level: no prior mass below rbar")
    return DiscreteDistribution(raw[0] / total[0]) if single else raw / total


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


def erm_index(rn: np.ndarray) -> int | np.ndarray:
    """Index of the smallest empirical risk, per row of risks; ties go to the smallest index."""
    rn = np.asarray(rn, dtype=float)
    if rn.shape[-1] == 0:
        raise ValueError("empty risk vector")
    index = np.argmin(rn, axis=-1)
    return int(index) if rn.ndim == 1 else index


def _sublevel_masses(rows: np.ndarray, weights: np.ndarray,
                     widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prior mass of {values <= min + width} for each row and each width, and
    whether that sublevel is full: no supported atom lies above it.

    ``widths`` is one set of widths for every row, or a column with one width
    per row. A full sublevel's mass is exactly 1; the others sum the weights
    in atom order with zeros off the sublevel.
    """
    levels = rows.min(axis=1)[:, None] + widths
    masses = np.where(rows[:, None, :] <= levels[:, :, None], weights, 0.0).sum(axis=-1)
    full = np.where(weights > 0.0, rows, -np.inf).max(axis=1)[:, None] <= levels
    return np.where(full, 1.0, masses), full


def verify_complexity(values: np.ndarray, pi: DiscreteDistribution,
                      gamma_grid: np.ndarray) -> ComplexityEstimate:
    """Certify a sublevel-mass exponent d on a gamma grid inside (0, 1).

    For each grid point the prior mass of {values <= min + gamma} must be at
    least gamma**d. The certified d is the closed-form threshold
    max log(mass) / log(gamma) rounded up to ``COMPLEXITY_RESOLUTION``, plus
    one step of it where rounding misses a grid point by an ulp of gamma**d.
    A d that still fails, or exceeds ``COMPLEXITY_CAP`` (meaningless for a
    discrete prior), is reported unsatisfied. Given rows of values, each row
    is certified on its own.
    """
    grid = np.sort(np.asarray(gamma_grid, dtype=float).ravel())
    if grid.size == 0:
        raise ValueError("gamma grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("gamma grid must lie strictly inside (0, 1)")
    rows, single = _rows(values)
    if rows.shape[1] != len(pi):
        raise ValueError("value vector and prior sizes differ")
    masses, full_points = _sublevel_masses(rows, pi.weights, grid)
    empty = (masses <= 0.0).any(axis=1)
    # Full sublevels at every grid point: every exponent works.
    full = full_points.all(axis=1)
    binding = ~full_points & (masses > 0.0)
    ratios = np.log(masses, out=np.full_like(masses, -np.inf), where=binding) / np.log(grid)
    threshold = np.where(binding, ratios, -np.inf).max(axis=1)
    d = COMPLEXITY_RESOLUTION * np.maximum(1.0, np.ceil(threshold / COMPLEXITY_RESOLUTION))
    d = np.where((masses >= grid ** d[:, None]).all(axis=1), d, d + COMPLEXITY_RESOLUTION)
    holds = ~empty & (d <= COMPLEXITY_CAP) & (masses >= grid ** d[:, None]).all(axis=1)
    estimate = ComplexityEstimate(np.where(full | ~holds, COMPLEXITY_CAP, d), full | holds)
    return estimate.row(0) if single else estimate


def oracle_bound(r_min, budget: float, q: float, d) -> float | np.ndarray:
    """min r + 2 * T ** (1 / (q + d)), T the budget spent by the bounded level.

    Elementwise over ``r_min`` and ``d``.
    """
    if not 0 < budget < math.inf or q <= 1 or np.any(np.less(d, 0)):
        raise ValueError("invalid oracle-bound inputs")
    return r_min + 2.0 * budget ** (1.0 / (q + d))


def certified_oracle(values: np.ndarray, pi: DiscreteDistribution, gamma_grid: np.ndarray,
                     level, budget: float, q: float) -> tuple:
    """Sublevel-mass exponent of ``values`` and the oracle bound on ``level``.

    The bound is certified, and returned, only when the exponent d certifies
    on the grid and the proof point gamma = (level - min) / 2 lies inside the
    grid's gamma interval with sublevel mass at least gamma**d (the grid is
    checked only at its points); it is None otherwise. ``level`` is the solve
    of ``values`` at the same budget T, so T >= mass(gamma) * gamma**q >=
    gamma**(q + d) gives level <= the bound. Given rows of values and one
    level per row, the estimate holds arrays and the bounds are an array,
    NaN where uncertified.
    """
    rows, single = _rows(values)
    complexity = verify_complexity(rows, pi, gamma_grid)
    floor = rows.min(axis=1)
    bound = oracle_bound(floor, budget, q, complexity.d)  # checks T and q even if uncertified
    gamma = (level - floor) / 2.0
    certified = complexity.satisfied & (min(gamma_grid) <= gamma) & (gamma <= max(gamma_grid))
    if certified.any():
        with np.errstate(over="ignore"):  # at a gamma off the grid, whose row is out already
            certified &= (_sublevel_masses(rows, pi.weights, gamma[:, None])[0][:, 0]
                          >= gamma ** complexity.d)
    oracle = np.where(certified, bound, np.nan)
    if single:
        return complexity.row(0), float(oracle[0]) if certified[0] else None
    return complexity, oracle
