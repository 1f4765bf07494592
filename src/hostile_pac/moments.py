"""Upper bounds on the prior-averaged deviation moment for each data regime.

The moment term is the prior average of E|r_n(theta) - R(theta)|**q. Each
regime bounds it from analytically supplied constants: an integrated loss
variance (i.i.d.), a sub-Gaussian parameter, or alpha-mixing coefficient
sums for dependent rows. The exponent q travels with the bound so it can
never be paired with a mismatched Hoelder split downstream.

Each regime class is the one home of its rules and its formula: its fields
are the keys of the config's ``regime`` section, ``check`` raises a
``ValueError`` naming the offending key, and ``resolve`` returns p, the
:class:`MomentBound` and the analytic constants echoed into every record.

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
from .param_space import AtomSet, DiscreteDistribution, ExplicitPrior
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
        raise ValueError(f"generator.kind: the {kind} regime requires independent rows, "
                         "not ar1")


def scale_keys(config: ExperimentConfig) -> str:
    """The config keys that set the size of the data and of their moments,
    listed for an error that asks to lower one of them."""
    keys = [f"generator.{key}" for key in ("theta_star", "x_law.scale", "noise")
            if hasattr(config.generator, key.split(".")[0])]
    prior = "atoms" if isinstance(config.prior, ExplicitPrior) else "scale"
    return f"{', '.join(keys)} or prior.{prior}"


def _closed_form(config: ExperimentConfig, key: str, value: float) -> float:
    """``value``, the constant at ``key`` made from closed-form moments of the
    generator and the prior, if finite; the error names the scales that overflow it."""
    if math.isfinite(value):
        return value
    raise ValueError(f"{key}: the closed-form moments give {value} in doubles; lower "
                     f"{scale_keys(config)}")


def _check_noise_moment(config: ExperimentConfig, order: int, key: str) -> None:
    noise = config.generator.noise
    try:
        moment = datagen.noise_moment(noise, order)
    except datagen.MomentDoesNotExistError as exc:
        raise ValueError(f"{key} needs noise moments of order {order} ({exc}); "
                         "raise generator.noise.dof or supply a number") from exc
    if not math.isfinite(moment):
        scale = "variance" if isinstance(noise, datagen.GaussianNoise) else "scale"
        raise ValueError(f"{key} needs noise moments of order {order}, which overflow "
                         f"doubles; lower generator.noise.{scale} or supply a number")


@dataclass(frozen=True)
class VarianceRegime:
    """The ``variance`` regime: i.i.d. rows, M = (s2 / n)**(q/2), s2 the integrated loss variance.

    The Jensen step behind the bound needs q <= 2, so p = ``experiment.p`` is
    at least 2 and q is its conjugate. ``s2`` is a number, or ``"kappa"`` for
    the majorant 8 (E y**4 + tau E||X||**4), tau = sum_j pi_j ||theta_j||**4,
    or ``"exact"`` for sum_j pi_j Var[loss(theta_j)] = sum_j pi_j (E u**4 -
    (E u**2)**2) of the residual u (both for i.i.d. squared-loss regression only).
    """

    s2: float | Literal["kappa", "exact"] = "kappa"

    def check(self, config: ExperimentConfig) -> None:
        _check_independent_rows(config, "variance")
        if config.p < 2:
            raise ValueError("experiment.p must be at least 2: the variance regime needs q <= 2")
        if self.s2 in ("kappa", "exact") and not (
                isinstance(config.generator, datagen.IidLinearRegression)
                and isinstance(config.loss, SquaredLoss)):
            raise ValueError(f"regime.s2: {self.s2} applies to i.i.d. squared-loss regression "
                             "only; supply a numeric s2 otherwise")
        if self.s2 in ("kappa", "exact"):
            _check_noise_moment(config, 4, f"regime.s2: {self.s2}")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        if self.s2 == "kappa":
            ey4, ex4 = datagen.kappa_moments(config.generator)
            tau = float(pi.weights @ np.linalg.norm(atoms.coords, axis=1) ** 4)
            s2 = _closed_form(config, "regime.s2: kappa", 8.0 * (ey4 + tau * ex4))
            constants = {"s2": s2, "s2_mode": "kappa", "tau": tau, "ey4": ey4, "ex4": ex4}
        elif self.s2 == "exact":
            eu2, eu4 = datagen.residual_moments(config.generator, atoms, 4)
            s2 = _closed_form(config, "regime.s2: exact", float(pi.weights @ (eu4 - eu2**2)))
            constants = {"s2": s2, "s2_mode": "exact"}
        else:
            s2 = float(self.s2)
            constants = {"s2": s2, "s2_mode": "given"}
        q = config.p / (config.p - 1.0)
        return config.p, MomentBound((s2 / config.n) ** (q / 2.0), q), constants


@dataclass(frozen=True)
class SubGaussianRegime:
    """The ``subgaussian`` regime: per-atom losses sub-Gaussian with parameter sigma2.

    M = 2 (q sigma2 / n)**(q/2), which the moment inequality gives for q >= 2.
    q defaults to the conjugate of p, and ``optimize_q`` (which excludes an
    explicit ``q``) takes the finite-class optimum q = 2 log(2K / delta),
    clamped up to 2 with ``q_clamped`` set; p is q/(q-1).
    """

    sigma2: float
    q: float | None = None
    optimize_q: bool = False

    def _given_q(self, config: ExperimentConfig) -> tuple[str, float]:
        """The key that sets q without ``optimize_q``, and q."""
        return (("regime.q", self.q) if self.q is not None
                else ("experiment.p", config.p / (config.p - 1.0)))

    def check(self, config: ExperimentConfig) -> None:
        _check_independent_rows(config, "subgaussian")
        if self.optimize_q and self.q is not None:
            raise ValueError("regime.q cannot be combined with regime.optimize_q, which sets q")
        key, q = self._given_q(config)
        if not self.optimize_q and q < 2:
            raise ValueError(f"{key}: the sub-Gaussian moment inequality requires q >= 2 "
                             f"(q = p/(p-1) unless regime.q is set), got q={q}")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        constants: dict = {}
        if self.optimize_q:
            key, q = "regime.optimize_q", 2.0 * math.log(2.0 * len(atoms) / config.delta)
            q, constants["q_clamped"] = max(q, 2.0), q < 2.0
        else:
            key, q = self._given_q(config)
        constants.update(sigma2=self.sigma2, q=q)
        value = 2.0 * float(np.float64(q * self.sigma2 / config.n) ** (q / 2.0))
        if not math.isfinite(value):
            raise ValueError(f"{key}, regime.sigma2 and experiment.n: M = 2 (q sigma2 / n)"
                             f"**(q/2) overflows doubles at q={q!r}")
        return q / (q - 1.0), MomentBound(value, q), constants


class _MixingRegime:
    """Shared by the mixing regimes: AR(1) rows, the assumed envelope (c1, c2), q = p = 2."""

    def _check_envelope(self, config: ExperimentConfig) -> None:
        if not isinstance(config.generator, datagen.AR1):
            raise ValueError("generator.kind: mixing regimes require the ar1 generator")
        if abs(config.p - 2.0) > 1e-12:
            raise ValueError("experiment.p must be 2: mixing regimes certify q = 2")
        if config.generator.mixing is None:
            raise ValueError("generator.mixing: mixing regimes need the assumed envelope {c1, c2}")
        if self.alpha_sum == "envelope" and not config.generator.mixing.c1 > 0:
            raise ValueError("generator.mixing.c1 must be positive under regime.alpha_sum: "
                             "envelope, which would otherwise give a zero moment bound")

    def _alpha_sum(self, config: ExperimentConfig, power: float) -> tuple[float, dict]:
        """Sum of alpha_j**(1/power), and the envelope echoed as c1, c2.

        Under ``"envelope"`` this is 2 c1**(1/power) / (1 - exp(-c2/power)),
        the majorized two-sided sum of (c1 exp(-c2 |j|))**(1/power) over j,
        which dominates the exact sum at every truncation level.
        """
        envelope = config.generator.mixing
        constants = {"c1": envelope.c1, "c2": envelope.c2}
        if self.alpha_sum != "envelope":
            return float(self.alpha_sum), constants
        gap = 1.0 - math.exp(-envelope.c2 / power)
        if gap == 0:
            raise ValueError(f"generator.mixing.c2={envelope.c2!r} is so small that "
                             f"1 - exp(-c2/{power!r}) rounds to 0")
        return 2.0 * envelope.c1 ** (1.0 / power) / gap, constants


@dataclass(frozen=True)
class MixingBoundedRegime(_MixingRegime):
    """The ``mixing_bounded`` regime: losses in [0, 1], summable alpha-mixing.

    M = alpha_sum / n at q = 2. ``alpha_sum`` is a number, or ``"envelope"``
    for the majorized sum of the generator's assumed geometric envelope.
    """

    alpha_sum: float | Literal["envelope"] = "envelope"

    def check(self, config: ExperimentConfig) -> None:
        self._check_envelope(config)
        if not isinstance(config.loss, ZeroOneLoss):
            raise ValueError("experiment.loss: mixing_bounded requires losses in [0, 1]: "
                             "use zero_one")

    def resolve(self, config: ExperimentConfig, atoms: AtomSet,
                pi: DiscreteDistribution) -> tuple[float, MomentBound, dict]:
        alpha_sum, constants = self._alpha_sum(config, 1.0)
        constants["alpha_sum"] = alpha_sum
        return 2.0, MomentBound(alpha_sum / config.n, 2.0), constants


@dataclass(frozen=True)
class MixingUnboundedRegime(_MixingRegime):
    """The ``mixing_unbounded`` regime: unbounded losses under alpha-mixing.

    M = davydov_factor * moment_integral * alpha_frac_sum / n at q = 2. The
    covariance inequality needs exponents r >= 1, s >= 2 with
    1/r + 2/s = 1. ``alpha_sum`` is the sum of alpha_j**(1/r), or
    ``"envelope"``; ``moment_integral`` is the prior integral of
    {E[loss**s]}**(2/s), a number, or ``"analytic"`` for the closed form
    (squared loss at s = 3 only, where E[loss**3] is E u**6 of the residual u).
    The displayed proposition constant corresponds to ``davydov_factor=1``;
    the proof's covariance step carries a factor 8, which is the conservative
    default.
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
            third = datagen.residual_moments(config.generator, atoms, 6)[2]
            moment_integral = _closed_form(config, "regime.moment_integral: analytic",
                                           float(pi.weights @ third ** (2.0 / 3.0)))
        else:
            moment_integral = float(self.moment_integral)
        constants.update(r=self.r, s=self.s, moment_integral=moment_integral,
                         alpha_frac_sum=alpha_frac_sum, davydov_factor=self.davydov_factor)
        value = self.davydov_factor * moment_integral * alpha_frac_sum / config.n
        return 2.0, MomentBound(value, 2.0), constants


RegimeSpec = VarianceRegime | SubGaussianRegime | MixingBoundedRegime | MixingUnboundedRegime


def empirical_moment_estimate(tables: list[np.ndarray], true_values: np.ndarray,
                              pi: DiscreteDistribution, q: float) -> float:
    """Monte Carlo estimate of the deviation moment from replicated tables: the
    mean of E_pi |R - r_n|**q, both ``deviation_moments`` sides, as coverage's
    ``realized_moment``. Validation only; no package code calls it, and the
    benchmark's moment workload calls and traces it by name."""
    # aggregation imports this module, so this import waits for the call.
    from .aggregation import deviation_moments
    if len(tables) < 2:
        raise ValueError("need at least 2 replicated tables")
    risks = np.stack([empirical_risk(table) for table in tables])
    if risks.shape[1:] != np.shape(true_values):
        raise ValueError("table and true-risk vector sizes do not match")
    return float(np.mean(np.add(*deviation_moments(true_values - risks, pi, q))))
