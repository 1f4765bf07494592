"""Upper bounds on the prior-averaged deviation moment for each data regime.

The moment term is the prior average of E|r_n(theta) - R(theta)|**q. Each
regime bounds it from analytically supplied constants: an integrated loss
variance (i.i.d.), a sub-Gaussian parameter, or alpha-mixing coefficient
sums for dependent rows. The exponent q travels with the bound so it can
never be paired with a mismatched Hoelder split downstream.

Each regime class is the one home of its rules: its fields are the keys of
the config's ``regime`` section, ``check`` raises a ``ValueError`` naming
the offending key, and ``resolve`` returns p, the :class:`MomentBound` (from
a ``moment_*`` formula) and the analytic constants echoed into every record.

``empirical_moment_estimate`` is the one data-driven routine here; it exists
to validate the theoretical bounds in experiments and must never feed a
guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Literal

import numpy as np

from . import datagen
from .param_space import AtomSet, DiscreteDistribution
from .risk import SquaredLoss, ZeroOneLoss, empirical_risk

if TYPE_CHECKING:
    from .harness import ExperimentConfig

EXPONENT_IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class MomentBound:
    """A certified upper bound on the deviation moment at exponent q."""

    value: float
    q: float

    def __post_init__(self) -> None:
        if not 0 <= self.value < math.inf:
            raise ValueError(f"bound value must be finite and nonnegative, got {self.value}")
        if not self.q > 1:
            raise ValueError("q must exceed 1")


def _check_independent_rows(config: ExperimentConfig, kind: str) -> None:
    if isinstance(config.generator, datagen.AR1):
        raise ValueError(f"the {kind} regime requires independent rows, not AR(1)")


def _check_noise_moment(config: ExperimentConfig, order: int, key: str) -> None:
    try:
        datagen.noise_moment(config.generator.noise, order)
    except datagen.MomentDoesNotExistError as exc:
        raise ValueError(f"{key} needs noise moments of order {order} ({exc}); "
                         "raise generator.noise.dof or supply a number") from exc


@dataclass(frozen=True)
class VarianceRegime:
    """The ``variance`` regime: i.i.d. rows, q <= 2, integrated loss variance s2.

    ``s2`` is a number, or ``"kappa"`` for the majorant 8 (E y**4 + tau E||X||**4),
    tau = sum_j pi_j ||theta_j||**4, or ``"exact"`` for the exact integrated loss
    variance (both for i.i.d. squared-loss regression only). p is ``experiment.p``
    and q its conjugate.
    """

    s2: float | Literal["kappa", "exact"] = "kappa"

    def check(self, config: ExperimentConfig) -> None:
        _check_independent_rows(config, "variance")
        if config.p < 2:
            raise ValueError("experiment.p must be at least 2: the variance regime needs q <= 2")
        if self.s2 in ("kappa", "exact") and not (
                isinstance(config.generator, datagen.IidLinearRegression)
                and isinstance(config.loss, SquaredLoss)):
            raise ValueError("analytic s2 modes apply to i.i.d. squared-loss regression; "
                             "supply a numeric s2 otherwise")
        if self.s2 in ("kappa", "exact"):
            _check_noise_moment(config, 4, f"regime.s2: {self.s2}")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        if self.s2 == "kappa":
            ey4, ex4 = datagen.kappa_moments(config.generator)
            with np.errstate(over="ignore"):  # an infinite tau fails as an infinite bound
                tau = float(pi.weights @ np.linalg.norm(atoms.coords, axis=1) ** 4)
            s2 = 8.0 * (ey4 + tau * ex4)
            constants = {"s2": s2, "s2_mode": "kappa", "tau": tau, "ey4": ey4, "ex4": ex4}
        elif self.s2 == "exact":
            s2 = float(pi.weights @ datagen.squared_loss_variances(config.generator, atoms))
            constants = {"s2": s2, "s2_mode": "exact"}
        else:
            s2 = float(self.s2)
            constants = {"s2": s2, "s2_mode": "given"}
        return config.p, moment_iid_variance(s2, config.n, config.p / (config.p - 1.0)), constants


@dataclass(frozen=True)
class SubGaussianRegime:
    """The ``subgaussian`` regime: per-atom losses sub-Gaussian with parameter sigma2.

    q defaults to the conjugate of p, and ``optimize_q`` (which excludes an
    explicit ``q``) uses the finite-class optimized exponent; p is q/(q-1).
    """

    sigma2: float
    q: float | None = None
    optimize_q: bool = False

    def check(self, config: ExperimentConfig) -> None:
        _check_independent_rows(config, "subgaussian")
        if self.optimize_q and self.q is not None:
            raise ValueError("regime.q cannot be combined with regime.optimize_q, which sets q")
        key, q = (("regime.q", self.q) if self.q is not None
                  else ("experiment.p", config.p / (config.p - 1.0)))
        if not self.optimize_q and q < 2:
            raise ValueError(f"{key}: the sub-Gaussian moment inequality requires q >= 2 "
                             f"(q = p/(p-1) unless regime.q is set), got q={q}")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        constants: dict = {}
        if self.optimize_q:
            opt = optimal_q_finite(len(atoms), config.delta)
            q, constants["q_clamped"] = opt.q, opt.clamped
        else:
            q = self.q if self.q is not None else config.p / (config.p - 1.0)
        constants.update(sigma2=self.sigma2, q=q)
        return q / (q - 1.0), moment_subgaussian(self.sigma2, config.n, q), constants


class _MixingRegime:
    """Shared by the mixing regimes: AR(1) rows, the assumed envelope (c1, c2), q = p = 2."""

    def _check_envelope(self, config: ExperimentConfig) -> None:
        if not isinstance(config.generator, datagen.AR1):
            raise ValueError("mixing regimes require the AR(1) generator")
        if abs(config.p - 2.0) > 1e-12:
            raise ValueError("experiment.p must be 2: mixing regimes certify q = 2")
        if config.generator.mixing is None:
            raise ValueError("generator.mixing: mixing regimes need the assumed envelope {c1, c2}")
        if self.alpha_sum == "envelope" and not config.generator.mixing.c1 > 0:
            raise ValueError("generator.mixing.c1 must be positive under regime.alpha_sum: "
                             "envelope, which would otherwise give a zero moment bound")

    def _alpha_sum(self, config: ExperimentConfig, power: float) -> tuple[float, dict]:
        """Sum of alpha_j**(1/power), and the envelope echoed as c1, c2."""
        envelope = config.generator.mixing
        alpha_sum = (geometric_alpha_sum(envelope.c1, envelope.c2, power)
                     if self.alpha_sum == "envelope" else float(self.alpha_sum))
        return alpha_sum, {"c1": envelope.c1, "c2": envelope.c2}


@dataclass(frozen=True)
class MixingBoundedRegime(_MixingRegime):
    """The ``mixing_bounded`` regime: losses in [0, 1], summable alpha-mixing.

    ``alpha_sum`` is a number, or ``"envelope"`` for the majorized sum of the
    generator's assumed geometric envelope.
    """

    alpha_sum: float | Literal["envelope"] = "envelope"

    def check(self, config: ExperimentConfig) -> None:
        self._check_envelope(config)
        if not isinstance(config.loss, ZeroOneLoss):
            raise ValueError("mixing_bounded requires losses in [0, 1]: use the zero-one loss")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        alpha_sum, constants = self._alpha_sum(config, 1.0)
        constants["alpha_sum"] = alpha_sum
        return 2.0, moment_mixing_bounded(alpha_sum, config.n), constants


@dataclass(frozen=True)
class MixingUnboundedRegime(_MixingRegime):
    """The ``mixing_unbounded`` regime: unbounded losses under alpha-mixing.

    The covariance inequality needs exponents r >= 1, s >= 2 with
    1/r + 2/s = 1. ``alpha_sum`` is the sum of alpha_j**(1/r), or
    ``"envelope"``; ``moment_integral`` is the prior integral of
    {E[loss**s]}**(2/s), a number, or ``"analytic"`` for the closed form
    (squared loss at s = 3 only). The displayed proposition constant
    corresponds to ``davydov_factor=1``; the proof's covariance step carries
    a factor 8, which is the conservative default.
    """

    r: float = 3.0
    s: float = 3.0
    davydov_factor: float = 8.0
    alpha_sum: float | Literal["envelope"] = "envelope"
    moment_integral: float | Literal["analytic"] = "analytic"

    def check(self, config: ExperimentConfig) -> None:
        self._check_envelope(config)
        r, s = self.r, self.s
        if not (r >= 1 and s >= 2 and abs(1.0 / r + 2.0 / s - 1.0) <= EXPONENT_IDENTITY_TOL):
            raise ValueError("regime.r, regime.s: exponents need r >= 1, s >= 2 and "
                             f"1/r + 2/s = 1, got r={r}, s={s}")
        if self.moment_integral != "analytic":
            return
        if abs(s - 3.0) > 1e-12 or not isinstance(config.loss, SquaredLoss):
            raise ValueError("regime.moment_integral: analytic is implemented for the squared "
                             "loss at s = 3; supply a number otherwise")
        _check_noise_moment(config, 6, "regime.moment_integral: analytic")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        alpha_frac_sum, constants = self._alpha_sum(config, self.r)
        if self.moment_integral == "analytic":
            third = datagen.squared_loss_third_moments(config.generator, atoms)
            moment_integral = float(pi.weights @ third ** (2.0 / 3.0))
        else:
            moment_integral = float(self.moment_integral)
        constants.update(r=self.r, s=self.s, moment_integral=moment_integral,
                         alpha_frac_sum=alpha_frac_sum, davydov_factor=self.davydov_factor)
        bound = moment_mixing_unbounded(moment_integral, alpha_frac_sum, self.davydov_factor,
                                        config.n)
        return 2.0, bound, constants


RegimeSpec = VarianceRegime | SubGaussianRegime | MixingBoundedRegime | MixingUnboundedRegime


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
    return MomentBound((s2 / n) ** (q / 2.0), q)


def moment_subgaussian(sigma2: float, n: int, q: float) -> MomentBound:
    """2 * (q * sigma2 / n) ** (q / 2) for q >= 2."""
    _check_n(n)
    if q < 2:
        raise ValueError("the sub-Gaussian moment inequality requires q >= 2")
    if sigma2 < 0:
        raise ValueError("sigma2 must be nonnegative")
    return MomentBound(2.0 * (q * sigma2 / n) ** (q / 2.0), q)


def moment_mixing_bounded(alpha_sum: float, n: int) -> MomentBound:
    """alpha_sum / n at q = 2; the caller asserts losses lie in [0, 1]."""
    _check_n(n)
    if alpha_sum < 0:
        raise ValueError("alpha_sum must be nonnegative")
    return MomentBound(alpha_sum / n, 2.0)


def moment_mixing_unbounded(moment_integral: float, alpha_frac_sum: float,
                            davydov_factor: float, n: int) -> MomentBound:
    """davydov_factor * moment_integral * alpha_frac_sum / n at q = 2."""
    _check_n(n)
    if not moment_integral >= 0 or not alpha_frac_sum >= 0:
        raise ValueError("moment_integral and alpha_frac_sum must be nonnegative")
    return MomentBound(davydov_factor * moment_integral * alpha_frac_sum / n, 2.0)


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


def empirical_moment_estimate(tables: list[np.ndarray], true_values: np.ndarray,
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
