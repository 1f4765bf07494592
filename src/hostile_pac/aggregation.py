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

Every routine takes rows: per-atom values and aggregation weights of shape
(rows, K), one row per dataset, and returns one entry per row. One dataset
is the one-row case, ``rn[None]`` in and ``[0]`` or ``.row(0)`` out. The
prior is always the :class:`DiscreteDistribution`, read through its
``weights`` and, where atoms of zero weight matter, its ``support``.

An infinite divergence is propagated, not raised: the certificate is then
vacuous but valid, and sweep outputs stay rectangular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import power_divergence_plus_one
from .moments import MomentBound
from .param_space import DiscreteDistribution, _row_dots, _rows

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
    """Evaluated certificate pieces, one array entry per row of aggregation weights."""

    rn_integral: np.ndarray
    margin: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    divergence_plus_one: np.ndarray

    def row(self, i: int) -> BoundReport:
        """The certificate of row ``i``, as floats."""
        return BoundReport(**{k: float(v[i]) for k, v in vars(self).items()})


@dataclass(frozen=True)
class ComplexityEstimate:
    """Certified sublevel-mass exponent on a gamma grid.

    ``d`` is the smallest exponent (at resolution 1e-3) such that the prior
    mass of every {values <= min + gamma} sublevel on the grid is at least
    gamma**d; any larger exponent is then certified as well since the grid
    lies in (0, 1). Degenerate inputs whose sublevels hold every supported
    atom at every grid point certify every exponent and report the cap.
    ``satisfied`` is False when no exponent is found up to the cap. Both
    fields are arrays with one entry per row of values.
    """

    d: np.ndarray
    satisfied: np.ndarray

    def row(self, i: int) -> ComplexityEstimate:
        """The estimate of row ``i``, as a float and a bool."""
        return ComplexityEstimate(float(self.d[i]), bool(self.satisfied[i]))


def pac_margin(cfg: BoundConfig, div_plus_one) -> np.ndarray:
    """(M / delta)**(1/q) * (D + 1)**(1/p), elementwise over D + 1; infinity propagates."""
    div_plus_one = np.asarray(div_plus_one, dtype=float)
    if not (div_plus_one >= 1.0 - CONJUGACY_TOL).all():  # NaN fails too
        raise ValueError("divergence-plus-one must be at least 1")
    return cfg.budget ** (1.0 / cfg.q) * np.maximum(div_plus_one, 1.0) ** (1.0 / cfg.p)


def certificate(rn_integral, div_plus_one, cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate at a known r_n integral and D + 1 (at least 1), elementwise."""
    margin, div_plus_one = pac_margin(cfg, div_plus_one), np.maximum(div_plus_one, 1.0)
    return BoundReport(rn_integral=rn_integral, margin=margin, upper=rn_integral + margin,
                       lower=rn_integral - margin, divergence_plus_one=div_plus_one)


def evaluate_bound(rho: np.ndarray, pi: DiscreteDistribution, rn: np.ndarray,
                   cfg: BoundConfig) -> BoundReport:
    """Two-sided certificate of each row of aggregation weights ``rho`` at the
    same row of r_n."""
    rows, weights = _rows(rn, len(pi)), _rows(rho, len(pi))
    if len(weights) != len(rows):
        raise ValueError("rho and the risks need one row per dataset each")
    return certificate(_row_dots(weights, rows),
                       power_divergence_plus_one(weights, pi, cfg.p), cfg)


def deviation_moments(gap: np.ndarray, pi: DiscreteDistribution,
                      q: float) -> tuple[np.ndarray, np.ndarray]:
    """(E_pi gap_+**q, E_pi gap_-**q) for the per-atom gap R - r_n, per row of
    gaps, summed against the weights of the prior ``pi``.

    By Hoelder duality in L^p(pi), sup over all rho of
    |E_rho gap| / (D(rho, pi) + 1)**(1/p) is the q-th root of the larger
    of the two, attained at rho proportional to pi * gap_+**(q-1) or
    pi * gap_-**(q-1). So the certificate holds for every rho at once
    exactly when that larger moment is at most M/delta.
    """
    gap = _rows(gap, len(pi))
    side = np.maximum(gap, 0.0)
    side **= q
    upper = _row_dots(side, pi.weights)
    np.maximum(np.negative(gap, out=side), 0.0, out=side)
    side **= q
    return upper, _row_dots(side, pi.weights)


def _spend_and_slope(levels: np.ndarray, risks: np.ndarray, weights: np.ndarray,
                     q: float, gaps: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Per row, s(level) and s'(level) / q, each summed over the row's atoms in atom
    order; the gaps are formed in ``gaps`` when it is given."""
    gaps = np.subtract(levels[:, None], risks, out=gaps)
    np.maximum(gaps, 0.0, out=gaps)
    powered = gaps if q - 1.0 == 1.0 else gaps ** (q - 1.0)
    slope = _row_dots(powered, weights)
    powered *= gaps
    return _row_dots(powered, weights), slope


def _last_bit_root(risks: np.ndarray, weights: np.ndarray, q: float, budget: float,
                   u: float, spend: float, step: float) -> float:
    """Accept ``u`` or a neighbouring double as the last-bit root of one row
    (``risks`` of shape (1, K), ``weights`` the K prior weights), or raise
    SolverError; ``spend`` and the Newton ``step`` are those at ``u``."""
    def spend_at(level: float) -> float:
        return float(_spend_and_slope(np.array([level]), risks, weights, q)[0][0])

    residual = abs(spend - budget)
    if spend < budget and u < u - step < math.inf:  # a tangent from below; NaN at slope 0
        u -= step
        spend = spend_at(u)
    toward = np.inf if spend < budget else -np.inf
    for _ in range(RBAR_LAST_BIT_STEPS):
        if spend >= budget > spend_at(np.nextafter(u, -np.inf)):
            return u
        u = float(np.nextafter(u, toward))
        spend = spend_at(u)
    raise SolverError(f"level solve did not reach residual tolerance: residual "
                      f"{residual:.3e} vs budget {budget:.3e}")


def solve_rbar(rn: np.ndarray, pi: DiscreteDistribution, q: float, budget: float) -> np.ndarray:
    """Smallest level u with s(u) = sum_j pi_j [u - rn_j]_+ ** q = T, the budget,
    one per row of risks.

    Newton on g = s ** (1/q), the weighted L^q norm of [u - rn]_+: convex, and
    increasing above the supported minimum of rn. With W and m the mass and
    pi-mean of a set of supported atoms, Jensen gives s(u) >= W [u - m]_+ ** q,
    so m + (T / W) ** (1/q) lies at or above the root. The start is the lesser
    bracket of the finite atoms and of the atoms tied at the row minimum (a
    bracket past the largest double is never the lesser). Tangents of the
    convex g lie below it, so the iterates fall monotonically onto the root
    without passing it, and a row stops at the first step that no longer
    decreases its iterate; every mass, mean and spend sums the row's own atoms
    in atom order. A full-support prior's rows are read in place, all-finite
    risks take the mass of all ones, and the spends share one (rows, K) array,
    the power q - 1 skipped at q = 2. Atoms with infinite risk never spend. The
    iterate is accepted when its spend is within ``RBAR_RESIDUAL_TOL`` of T, or
    when it is the root to the last bit: s(u) >= T > s(u-), u- the next double
    below u. A level a hair above the lowest risks may meet only the second
    test; rounding can stop the iterate below that root, so such a row takes
    one more tangent step up, which lands at or past it, and then tries up to
    ``RBAR_LAST_BIT_STEPS`` neighbouring doubles toward it. A row whose
    starting spend overflows doubles raises ``SolverError``, although its root
    may be finite: with risks 0 and 1e300 on weights 1e-310 and 1 and T = 100,
    the minimum's bracket is +inf and the finite atoms' bracket spends +inf.
    """
    rows = _rows(rn, len(pi))
    if not 0 < budget < math.inf:
        raise ValueError(f"budget must be positive and finite, got {budget}")
    if not q > 1:
        raise ValueError("q must exceed 1")
    risks, weights = np.ascontiguousarray(rows[:, pi.support]), pi.weights[pi.support]
    lowest = risks.min(axis=1)  # NaN if a row holds one
    if not (lowest > -np.inf).all():
        raise ValueError("risks on prior-supported atoms must not be NaN or -inf")
    if not (lowest < np.inf).all():
        raise ValueError("all prior mass sits on atoms with non-finite risk")
    scratch = np.equal(risks, lowest[:, None], out=np.empty(risks.shape))  # then the gaps
    tied = _row_dots(scratch, weights)  # mass at the minimum
    root = budget ** (1 / q)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mean = _row_dots(risks, weights)
        if np.isfinite(mean).all():  # no +inf risk; an overflowing sum masks to the same bits
            mass = _row_dots(np.ones((1, risks.shape[1])), weights)
        else:
            finite = np.isfinite(risks)
            mass = _row_dots(finite.astype(float), weights)
            mean = _row_dots(np.where(finite, risks, 0.0), weights)
        mean /= mass
        u = np.minimum(mean + (budget / mass) ** (1 / q), lowest + (budget / tied) ** (1 / q))
        spend, step = np.zeros_like(u), np.zeros_like(u)
        live = np.ones(u.shape, dtype=bool)
        for _ in range(RBAR_MAX_ITER):
            np.subtract(u, step, out=u, where=live)
            row_spend, slope = _spend_and_slope(u, risks, weights, q, scratch)
            np.copyto(spend, row_spend, where=live)
            # (g - T ** (1/q)) / g', with g' = s ** (1/q - 1) * slope; a row
            # whose level spends nothing has slope 0, a NaN step, and stops.
            step = (row_spend - root * row_spend ** (1 - 1 / q)) / slope
            live &= u - step < u
            if not live.any():
                break
        for i in np.flatnonzero(~(np.abs(spend - budget) <= RBAR_RESIDUAL_TOL * budget)):
            u[i] = _last_bit_root(risks[i:i + 1], weights, q, budget, u[i], spend[i], step[i])
    return u


def _normalized(raw: np.ndarray, empty: str) -> np.ndarray:
    """Rows of nonnegative weights scaled in place to sum to one, or ValueError ``empty``."""
    total = raw.sum(axis=1, keepdims=True)
    if not (total > 0).all():
        raise ValueError(empty)
    return np.divide(raw, total, out=raw)


def rho_hat(rn: np.ndarray, pi: DiscreteDistribution, p: float, rbar) -> np.ndarray:
    """Optimal weights, proportional to pi_j * [rbar - rn_j]_+ ** (1/(p-1)),
    one row per row of risks and its level.

    Atoms at or above the level get exactly zero mass, so the support is
    contained in {rn < rbar}. At p = 2 the power 1, a mere copy, is skipped.
    """
    rows = _rows(rn, len(pi))
    raw, exponent = np.subtract(np.reshape(rbar, (-1, 1)), rows), 1.0 / (p - 1.0)
    np.maximum(raw, 0.0, out=raw)
    if exponent != 1.0:
        raw **= exponent
    raw *= pi.weights
    return _normalized(raw, "degenerate level: no prior mass below rbar")


def catoni_pi_gamma(rn: np.ndarray, pi: DiscreteDistribution, gamma: float) -> np.ndarray:
    """Prior restricted to the gamma-sublevel of each row of rn, renormalized."""
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    rows = _rows(rn, len(pi))
    keep = rows <= rows.min(axis=1, keepdims=True) + gamma
    return _normalized(pi.weights * keep, "sublevel set carries no prior mass")


def optimal_gamma(d: float, p: float, budget: float) -> float:
    """The gamma minimizing the sublevel-restriction bound.

    gamma = (d (1 - 1/p) T) ** (1 / (1 + d (1 - 1/p))), T the budget.
    """
    if d <= 0 or p <= 1 or not 0 < budget < math.inf:
        raise ValueError("need d > 0, p > 1 and a positive finite budget T")
    exponent_weight = d * (1.0 - 1.0 / p)
    return (exponent_weight * budget) ** (1.0 / (1.0 + exponent_weight))


def erm_index(rn: np.ndarray) -> np.ndarray:
    """Index of the smallest empirical risk, per row of risks; ties go to the smallest index."""
    rows = _rows(rn)
    if rows.shape[1] == 0:
        raise ValueError("empty risk vector")
    return np.argmin(rows, axis=1)


def _sublevel_masses(rows: np.ndarray, pi: DiscreteDistribution,
                     gammas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prior mass of {values <= min + gamma} for each row and each gamma, and
    whether that sublevel is full: it holds every atom of ``pi.support``.

    ``gammas`` is one set of gammas for every row, or a column with one gamma
    per row. A full sublevel's mass is exactly 1; the others sum ``pi.weights``
    in atom order with zeros off the sublevel: the weights are finite and
    nonnegative, so mask times weight is the weight or +0.0. One gamma is
    summed at a time in one (rows, K) array, the mask written as 1.0 and 0.0
    and multiplied by the weights in place.
    """
    levels = rows.min(axis=1)[:, None] + gammas
    product = np.empty(rows.shape)
    masses = np.stack([np.multiply(np.less_equal(rows, level[:, None], out=product), pi.weights,
                                   out=product).sum(axis=-1) for level in levels.T], axis=1)
    full = rows[:, pi.support].max(axis=1, initial=-np.inf)[:, None] <= levels
    return np.where(full, 1.0, masses), full


def verify_complexity(values: np.ndarray, pi: DiscreteDistribution,
                      gamma_grid: np.ndarray) -> ComplexityEstimate:
    """Certify a sublevel-mass exponent d on a gamma grid inside (0, 1).

    For each grid point the prior mass of {values <= min + gamma} must be at
    least gamma**d. The certified d is the closed-form threshold
    max log(mass) / log(gamma) rounded up to ``COMPLEXITY_RESOLUTION``, plus
    one step of it where rounding misses a grid point by an ulp of gamma**d.
    A d that still fails, or exceeds ``COMPLEXITY_CAP`` (meaningless for a
    discrete prior), is reported unsatisfied. Each row of values is
    certified on its own.
    """
    grid = np.asarray(gamma_grid, dtype=float).ravel()
    if grid.size == 0:
        raise ValueError("gamma grid must be nonempty")
    if np.any(grid <= 0.0) or np.any(grid >= 1.0):
        raise ValueError("gamma grid must lie strictly inside (0, 1)")
    rows = _rows(values, len(pi))
    masses, full_points = _sublevel_masses(rows, pi, grid)
    empty = (masses <= 0.0).any(axis=1)
    # Full sublevels at every grid point: every exponent works.
    full = full_points.all(axis=1)
    binding = ~full_points & (masses > 0.0)
    ratios = np.log(masses, out=np.full_like(masses, -np.inf), where=binding) / np.log(grid)
    threshold = np.where(binding, ratios, -np.inf).max(axis=1)
    d = COMPLEXITY_RESOLUTION * np.maximum(1.0, np.ceil(threshold / COMPLEXITY_RESOLUTION))
    d = np.where((masses >= grid ** d[:, None]).all(axis=1), d, d + COMPLEXITY_RESOLUTION)
    holds = ~empty & (d <= COMPLEXITY_CAP) & (masses >= grid ** d[:, None]).all(axis=1)
    return ComplexityEstimate(np.where(full | ~holds, COMPLEXITY_CAP, d), full | holds)


def oracle_bound(r_min, budget: float, q: float, d) -> np.ndarray:
    """min r + 2 * T ** (1 / (q + d)), T the budget spent by the bounded level.

    Elementwise over ``r_min`` and ``d``, one of each per row.
    """
    if not 0 < budget < math.inf or q <= 1 or np.any(np.less(d, 0)):
        raise ValueError("invalid oracle-bound inputs")
    return r_min + 2.0 * budget ** (1.0 / (q + d))


def certified_oracle(values: np.ndarray, pi: DiscreteDistribution, gamma_grid: np.ndarray,
                     level, budget: float, q: float) -> tuple[ComplexityEstimate, np.ndarray]:
    """Sublevel-mass exponent of ``values`` and the oracle bound on ``level``.

    One of each per row of values and its level. The bound is certified
    only when the exponent d certifies on the grid and the proof point
    gamma = (level - min) / 2 lies inside the grid's gamma interval with
    sublevel mass at least gamma**d (the grid is checked only at its points);
    it is NaN otherwise. ``level`` is the solve of ``values`` at the same
    budget T, so T >= mass(gamma) * gamma**q >= gamma**(q + d) gives
    level <= the bound.
    """
    rows = _rows(values, len(pi))
    complexity = verify_complexity(rows, pi, gamma_grid)
    floor = rows.min(axis=1)
    bound = oracle_bound(floor, budget, q, complexity.d)  # checks T and q even if uncertified
    gamma = (level - floor) / 2.0
    certified = complexity.satisfied & (min(gamma_grid) <= gamma) & (gamma <= max(gamma_grid))
    if certified.any():
        with np.errstate(over="ignore"):  # at a gamma off the grid, whose row is out already
            certified &= (_sublevel_masses(rows, pi, gamma[:, None])[0][:, 0]
                          >= gamma ** complexity.d)
    return complexity, np.where(certified, bound, np.nan)
