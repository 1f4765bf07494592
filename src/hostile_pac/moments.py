"""Upper bounds on the prior-averaged deviation moment for each data regime.

The moment term is the prior average of E|r_n(theta) - R(theta)|**q. Each
regime bounds it from analytically supplied constants: an integrated loss
variance (i.i.d.), a sub-Gaussian parameter, or alpha-mixing coefficient
sums for dependent rows. The exponent q travels with the bound so it can
never be paired with a mismatched Hoelder split downstream.

``empirical_moment_estimate`` is the one data-driven routine here; it exists
to validate the theoretical bounds in experiments and must never feed a
guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .param_space import DiscreteDistribution
from .risk import LossTable, empirical_risk

EXPONENT_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class VarianceRegime:
    """The ``variance`` regime: i.i.d. rows, q <= 2, integrated loss variance s2.

    ``s2`` is a number, or ``"kappa"`` for the fourth-moment majorant, or
    ``"exact"`` for the exact integrated loss variance (both for i.i.d.
    squared-loss regression only).
    """

    s2: float | Literal["kappa", "exact"] = "kappa"


@dataclass(frozen=True)
class SubGaussianRegime:
    """The ``subgaussian`` regime: per-atom losses sub-Gaussian with parameter sigma2.

    q defaults to the conjugate of p; ``optimize_q`` uses the finite-class
    optimized exponent instead, so it excludes an explicit ``q``.
    """

    sigma2: float
    q: float | None = None
    optimize_q: bool = False


@dataclass(frozen=True)
class MixingBoundedRegime:
    """The ``mixing_bounded`` regime: losses in [0, 1], summable alpha-mixing.

    ``alpha_sum`` is a number, or ``"envelope"`` for the majorized sum of the
    generator's assumed geometric envelope.
    """

    alpha_sum: float | Literal["envelope"] = "envelope"


@dataclass(frozen=True)
class MixingUnboundedRegime:
    """The ``mixing_unbounded`` regime: unbounded losses under alpha-mixing.

    Resolved into :class:`MixingUnbounded`. ``alpha_sum`` is the sum of
    alpha_j**(1/r), or ``"envelope"``; ``moment_integral`` is a number, or
    ``"analytic"`` for the closed form (squared loss at s = 3 only).
    """

    r: float = 3.0
    s: float = 3.0
    davydov_factor: float = 8.0
    alpha_sum: float | Literal["envelope"] = "envelope"
    moment_integral: float | Literal["analytic"] = "analytic"


RegimeSpec = VarianceRegime | SubGaussianRegime | MixingBoundedRegime | MixingUnboundedRegime


@dataclass(frozen=True)
class MixingUnbounded:
    """Unbounded losses under mixing, via the covariance inequality.

    Requires conjugate exponents 1/r + 2/s = 1. ``moment_integral`` is the
    prior integral of {E[loss**s]}**(2/s); ``alpha_frac_sum`` is the sum of
    alpha_j**(1/r). The displayed proposition constant corresponds to
    ``davydov_factor=1``; the proof's covariance step carries a factor 8,
    which is the conservative default.
    """

    r: float
    s: float
    moment_integral: float
    alpha_frac_sum: float
    davydov_factor: float = 8.0

    def __post_init__(self) -> None:
        check_mixing_exponents(self.r, self.s)
        if not self.moment_integral >= 0 or not self.alpha_frac_sum >= 0:
            raise ValueError("moment_integral and alpha_frac_sum must be nonnegative")


def check_mixing_exponents(r: float, s: float) -> None:
    """The covariance inequality's exponents: r >= 1, s >= 2 and 1/r + 2/s = 1."""
    if not (r >= 1 and s >= 2 and abs(1.0 / r + 2.0 / s - 1.0) <= EXPONENT_IDENTITY_TOL):
        raise ValueError(f"exponents need r >= 1, s >= 2 and 1/r + 2/s = 1, got r={r}, s={s}")


@dataclass(frozen=True)
class MomentBound:
    """A certified upper bound on the deviation moment at exponent q."""

    value: float
    q: float
    n: int
    regime: str

    def __post_init__(self) -> None:
        if not self.value >= 0:
            raise ValueError("bound value must be nonnegative")
        if not self.q > 1:
            raise ValueError("q must exceed 1")


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")


def moment_iid_variance(s2: float, n: int, q: float) -> MomentBound:
    """(s2 / n) ** (q / 2) for 1 < q <= 2.

    The Jensen step behind this bound needs q/2 <= 1, so larger q is
    rejected rather than silently extrapolated.
    """
    _check_n(n)
    if not 1 < q <= 2:
        raise ValueError("the integrated-variance route requires 1 < q <= 2")
    if s2 < 0:
        raise ValueError("s2 must be nonnegative")
    return MomentBound((s2 / n) ** (q / 2.0), q, n, "iid_variance")


def moment_subgaussian(sigma2: float, n: int, q: float) -> MomentBound:
    """2 * (q * sigma2 / n) ** (q / 2) for q >= 2."""
    _check_n(n)
    if q < 2:
        raise ValueError("the sub-Gaussian moment inequality requires q >= 2")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    return MomentBound(2.0 * (q * sigma2 / n) ** (q / 2.0), q, n, "subgaussian")


def moment_mixing_bounded(alpha_sum: float, n: int) -> MomentBound:
    """alpha_sum / n at q = 2; the caller asserts losses lie in [0, 1]."""
    _check_n(n)
    if alpha_sum < 0:
        raise ValueError("alpha_sum must be nonnegative")
    return MomentBound(alpha_sum / n, 2.0, n, "mixing_bounded")


def moment_mixing_unbounded(regime: MixingUnbounded, n: int) -> MomentBound:
    """davydov_factor * moment_integral * alpha_frac_sum / n at q = 2."""
    _check_n(n)
    value = regime.davydov_factor * regime.moment_integral * regime.alpha_frac_sum / n
    return MomentBound(value, 2.0, n, "mixing_unbounded")


def geometric_alpha_sum(c1: float, c2: float, power: float = 1.0) -> float:
    """Majorized two-sided sum of (c1 * exp(-c2 |j|)) ** (1/power) over j.

    Returns 2 * c1**(1/power) / (1 - exp(-c2/power)), which dominates the
    exact sum for every truncation level.
    """
    if c1 < 0:
        raise ValueError("c1 must be nonnegative")
    if c2 <= 0:
        raise ValueError("c2 must be positive")
    if power < 1:
        raise ValueError("power must be >= 1")
    if c1 == 0:
        return 0.0
    return 2.0 * c1 ** (1.0 / power) / (1.0 - math.exp(-c2 / power))


def kappa_quadratic(ey4: float, tau: float, ex4: float) -> float:
    """8 * (E[Y^4] + tau * E[||X||^4]).

    Dominates the prior-integrated loss variance for quadratic-loss linear
    regression, so it is usable wherever an s2 is required.
    """
    if ey4 < 0 or tau < 0 or ex4 < 0:
        raise ValueError("inputs must be nonnegative")
    return 8.0 * (ey4 + tau * ex4)


@dataclass(frozen=True)
class OptimalQ:
    """Exponent choice for the finite-class sub-Gaussian route."""

    q: float
    clamped: bool


def optimal_q_finite(num_atoms: int, delta: float) -> OptimalQ:
    """q = 2 * log(2K / delta), clamped up to 2 (with a flag) if below."""
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if num_atoms < 1:
        raise ValueError("need at least one atom")
    q = 2.0 * math.log(2.0 * num_atoms / delta)
    if q < 2.0:
        return OptimalQ(2.0, True)
    return OptimalQ(q, False)


def optimized_erm_margin(sigma2: float, n: int, num_atoms: int, delta: float) -> float:
    """sqrt(2 e sigma2 log(2K/delta) / n), the margin at the optimized q."""
    _check_n(n)
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return math.sqrt(2.0 * math.e * sigma2 * math.log(2.0 * num_atoms / delta) / n)


def empirical_moment_estimate(tables: list[LossTable], true_values: np.ndarray,
                              pi: DiscreteDistribution, q: float) -> float:
    """Monte Carlo estimate of the deviation moment from replicated tables.

    Averages sum_j pi_j |r_n(theta_j) - R(theta_j)|**q over the tables.
    Validation only: the estimate shares data with the risks it is compared
    against and must never be substituted into a guarantee.
    """
    if len(tables) < 2:
        raise ValueError("need at least 2 replicated tables")
    true_values = np.asarray(true_values, dtype=float)
    acc = 0.0
    for table in tables:
        risks = empirical_risk(table)
        if risks.shape != true_values.shape or len(pi) != risks.shape[0]:
            raise ValueError("table, true-risk vector and prior sizes do not match")
        acc += float(pi.weights @ np.abs(risks - true_values) ** q)
    return acc / len(tables)
