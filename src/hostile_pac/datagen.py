"""Synthetic hostile-data generators with analytically known moments and risks.

Three processes are built in: i.i.d. linear regression with heavy-tailed
noise, a first-order autoregression observed through the design x_i =
(1, y_{i-1}), and bounded sign classification with label flips. Each carries
closed forms for the moments and true risks that the guarantee chain needs,
so coverage experiments never feed estimated constants back into a bound.

Mixing envelopes (c1, c2) are configuration, not estimation: the generator
records the assumed geometric bound on the alpha-mixing coefficients and
every consumer reports it alongside results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, signal, stats

from .param_space import AtomSet
from .risk import Dataset, LossKind, SquaredLoss, ZeroOneLoss

AR1_BURN_IN = 1000  # used when the stationary law has no closed form


class NoClosedFormError(Exception):
    """No closed-form true risk for this generator/loss combination."""


class MomentDoesNotExistError(ValueError):
    """Requested noise moment diverges for this law."""


@dataclass(frozen=True)
class GaussianNoise:
    variance: float = 1.0

    def __post_init__(self) -> None:
        if not self.variance >= 0:
            raise ValueError("variance must be nonnegative")


@dataclass(frozen=True)
class StudentTNoise:
    """Scaled Student-t innovations; moments exist only up to order < dof."""

    dof: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.dof > 2:
            raise ValueError("dof must exceed 2 so the variance exists")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


NoiseLaw = GaussianNoise | StudentTNoise


def noise_moment(noise: NoiseLaw, order: int) -> float:
    """E[eps**order] for even order in {2, 4, 6}; odd moments vanish by symmetry."""
    if order not in (2, 4, 6):
        raise ValueError("supported orders: 2, 4, 6")
    if isinstance(noise, GaussianNoise):
        v = noise.variance
        return {2: v, 4: 3 * v**2, 6: 15 * v**3}[order]
    nu, s = noise.dof, noise.scale
    if nu <= order:
        raise MomentDoesNotExistError(
            f"Student-t moment of order {order} requires dof > {order}, got {nu}"
        )
    if order == 2:
        return s**2 * nu / (nu - 2)
    if order == 4:
        return 3 * s**4 * nu**2 / ((nu - 2) * (nu - 4))
    return 15 * s**6 * nu**3 / ((nu - 2) * (nu - 4) * (nu - 6))


@dataclass(frozen=True)
class IsotropicGaussianX:
    scale: float = 1.0


@dataclass(frozen=True)
class UniformBoxX:
    """Coordinates drawn independently from [-halfwidth, halfwidth]."""

    halfwidth: float = 1.0


XLaw = IsotropicGaussianX | UniformBoxX


@dataclass(frozen=True)
class MixingBoundSpec:
    """Assumed geometric envelope alpha_j <= c1 * exp(-c2 * |j|)."""

    c1: float
    c2: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.c1) and self.c1 >= 0):
            raise ValueError("c1 must be finite and nonnegative")
        if not (np.isfinite(self.c2) and self.c2 > 0):
            raise ValueError("c2 must be finite and positive")


@dataclass(frozen=True)
class IidLinearRegression:
    """y = <theta_star, x> + eps with i.i.d. rows."""

    theta_star: tuple[float, ...]
    x_law: XLaw
    noise: NoiseLaw

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_star", tuple(float(t) for t in self.theta_star))
        if len(self.theta_star) == 0:
            raise ValueError("theta_star must be nonempty")

    @property
    def dim(self) -> int:
        return len(self.theta_star)


@dataclass(frozen=True)
class AR1:
    """y_i = a * y_{i-1} + eps_i, observed through pairs x_i = (1, y_{i-1})."""

    a: float
    noise: NoiseLaw
    mixing: MixingBoundSpec | None = None

    def __post_init__(self) -> None:
        if not abs(self.a) < 1:
            raise ValueError("autoregression coefficient must satisfy |a| < 1")

    @property
    def dim(self) -> int:
        return 2


@dataclass(frozen=True)
class BoundedClassification:
    """Labels sign(<theta_star, x>) flipped with probability flip_prob."""

    theta_star: tuple[float, ...]
    x_law: XLaw
    flip_prob: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta_star", tuple(float(t) for t in self.theta_star))
        if len(self.theta_star) == 0 or not any(t != 0 for t in self.theta_star):
            raise ValueError("theta_star must be a nonzero vector")
        if not 0 <= self.flip_prob < 0.5:
            raise ValueError("flip_prob must lie in [0, 0.5)")

    @property
    def dim(self) -> int:
        return len(self.theta_star)


GeneratorSpec = IidLinearRegression | AR1 | BoundedClassification


def _draw_x(law: XLaw, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(law, IsotropicGaussianX):
        return rng.standard_normal((n, dim)) * law.scale
    return rng.uniform(-law.halfwidth, law.halfwidth, (n, dim))


def _draw_noise(noise: NoiseLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    if isinstance(noise, GaussianNoise):
        return rng.normal(0.0, math.sqrt(noise.variance), n)
    return rng.standard_t(noise.dof, n) * noise.scale


def _ar1_path(a: float, y0: float, eps: np.ndarray) -> np.ndarray:
    """Recursion y_i = eps_i + a * y_{i-1} starting from y0, vectorized."""
    y, _ = signal.lfilter([1.0], [1.0, -a], eps, zi=np.array([a * y0]))
    return y


def generate(spec: GeneratorSpec, n: int, seed: int) -> Dataset:
    """Draw a dataset of length n; bit-reproducible for a fixed seed."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    if isinstance(spec, IidLinearRegression):
        x = _draw_x(spec.x_law, n, spec.dim, rng)
        eps = _draw_noise(spec.noise, n, rng)
        return Dataset(x=x, y=x @ np.asarray(spec.theta_star) + eps)
    if isinstance(spec, AR1):
        if n < 2:
            raise ValueError("AR(1) needs n >= 2")
        if isinstance(spec.noise, GaussianNoise):
            stationary_sd = math.sqrt(spec.noise.variance / (1.0 - spec.a**2))
            y0 = float(rng.normal(0.0, stationary_sd))
        else:
            # No closed-form stationary law for t innovations: burn in instead.
            burn = _draw_noise(spec.noise, AR1_BURN_IN, rng)
            y0 = float(_ar1_path(spec.a, 0.0, burn)[-1])
        eps = _draw_noise(spec.noise, n, rng)
        y = _ar1_path(spec.a, y0, eps)
        lagged = np.concatenate([[y0], y[:-1]])
        x = np.column_stack([np.ones(n), lagged])
        return Dataset(x=x, y=y)
    if isinstance(spec, BoundedClassification):
        x = _draw_x(spec.x_law, n, spec.dim, rng)
        scores = x @ np.asarray(spec.theta_star)
        labels = np.where(scores >= 0.0, 1.0, -1.0)
        flips = rng.random(n) < spec.flip_prob
        return Dataset(x=x, y=labels * np.where(flips, -1.0, 1.0))
    raise TypeError(f"unknown generator spec: {type(spec).__name__}")


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

def _score_moments(law: XLaw, w: np.ndarray, top: int) -> list[np.ndarray]:
    """[E s**2, E s**4, ...] up to order ``top`` of s = <w_j, X>, per row w_j of w.

    Sixth moments are implemented for Gaussian designs only.
    """
    sq = np.sum(w**2, axis=1)
    if isinstance(law, IsotropicGaussianX):
        m2 = law.scale**2 * sq
        return [m2, 3 * m2**2, 15 * m2**3][:top // 2]
    if top > 4:
        raise NoClosedFormError("sixth score moments implemented for Gaussian designs only")
    b = law.halfwidth
    quart = np.sum(w**4, axis=1)
    m2 = (b**2 / 3.0) * sq
    return [m2, (b**4 / 5.0) * quart + (b**4 / 3.0) * (sq**2 - quart)][:top // 2]


def _x_norm4(law: XLaw, dim: int) -> float:
    """E ||X||^4 for the symmetric designs above."""
    if isinstance(law, IsotropicGaussianX):
        return law.scale**4 * dim * (dim + 2)
    b = law.halfwidth
    return dim * b**4 / 5.0 + dim * (dim - 1) * b**4 / 9.0


def _ar1_y_moments(spec: AR1, order: int) -> float:
    """Stationary E[y**order] via the recursion moment identities."""
    a = spec.a
    e2 = noise_moment(spec.noise, 2)
    m2 = e2 / (1.0 - a**2)
    if order == 2:
        return m2
    e4 = noise_moment(spec.noise, 4)
    m4 = (6 * a**2 * m2 * e2 + e4) / (1.0 - a**4)
    if order == 4:
        return m4
    e6 = noise_moment(spec.noise, 6)
    return (15 * a**4 * m4 * e2 + 15 * a**2 * m2 * e4 + e6) / (1.0 - a**6)


def _sum_moments(x: list, y: list) -> list:
    """Even moments of X + Y from those of independent X and Y, X symmetric.

    ``x`` and ``y`` list E X**2, E X**4, ...; the odd moments of X vanish, so
    E (X + Y)**2m = sum_k binom(2m, 2k) E X**2k E Y**(2m - 2k).
    """
    x, y = [1.0, *x], [1.0, *y]
    return [sum(math.comb(2 * m, 2 * k) * x[k] * y[m - k] for k in range(m, -1, -1))
            for m in range(1, len(x))]


def _residual_moments(spec: IidLinearRegression | AR1, atoms: AtomSet,
                      top: int) -> list[np.ndarray]:
    """[E u**2, E u**4, ...] up to order ``top`` per atom, u = y - <theta, x>.

    For i.i.d. regression u is the score <theta_star - theta, x> plus the
    noise; for AR(1) it is (a - theta_1) y_lag plus the innovation, shifted by
    the constant -theta_0. Raises :class:`MomentDoesNotExistError` when a
    noise moment up to ``top`` diverges, and :class:`NoClosedFormError` for a
    sixth moment under a non-Gaussian design.
    """
    if atoms.dim != spec.dim:
        raise ValueError("atom dimension does not match the generator")
    orders = range(2, top + 1, 2)
    if isinstance(spec, IidLinearRegression):
        score = _score_moments(spec.x_law, np.asarray(spec.theta_star) - atoms.coords, top)
        return _sum_moments(score, [noise_moment(spec.noise, k) for k in orders])
    intercept, lag_w = atoms.coords[:, 0], atoms.coords[:, 1]
    lag = [(spec.a - lag_w) ** k * _ar1_y_moments(spec, k) for k in orders]
    centered = _sum_moments(lag, [noise_moment(spec.noise, k) for k in orders])
    return _sum_moments(centered, [intercept**k for k in orders])


def kappa_moments(spec: IidLinearRegression) -> tuple[float, float]:
    """(E y**4, E ||X||**4) of i.i.d. regression, the data moments of kappa.

    y is the residual of the zero atom. Raises
    :class:`MomentDoesNotExistError` when the fourth noise moment diverges.
    """
    zero = AtomSet(np.zeros((1, spec.dim)))
    return float(_residual_moments(spec, zero, 4)[1][0]), _x_norm4(spec.x_law, spec.dim)


# ---------------------------------------------------------------------------
# True risk
# ---------------------------------------------------------------------------

def _classification_risk(spec: BoundedClassification, atoms: AtomSet) -> np.ndarray:
    """R(theta) = eta + (1 - 2 eta) * angle(theta, theta_star) / pi.

    Valid for isotropic Gaussian designs with threshold 0: the chance that
    two homogeneous halfspaces disagree on a rotation-invariant draw is the
    angle between their normals over pi. A zero atom predicts +1 everywhere
    and disagrees with either sign half the time.
    """
    star = np.asarray(spec.theta_star)
    star_norm = np.linalg.norm(star)
    norms = np.linalg.norm(atoms.coords, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = (atoms.coords @ star) / (norms * star_norm)
    angle = np.arccos(np.clip(cosine, -1.0, 1.0))
    disagree = np.where(norms == 0.0, 0.5, angle / np.pi)
    return spec.flip_prob + (1.0 - 2.0 * spec.flip_prob) * disagree


def _ar1_sign_risk(spec: AR1, atoms: AtomSet, threshold: float) -> np.ndarray:
    """Sign-prediction risk for Gaussian AR(1), by quadrature over the lag.

    Conditional on the lag z, y is N(a z, v), so the mismatch probability is
    Phi(a z / sd) or its complement depending on which side of the threshold
    the linear score lands. Deterministic to quadrature precision.
    """
    v = spec.noise.variance
    sd = math.sqrt(v)
    lag_sd = math.sqrt(v / (1.0 - spec.a**2))
    a = spec.a

    def risk_one(theta0: float, theta1: float) -> float:
        def integrand(z: float) -> float:
            p_pos = stats.norm.cdf(a * z / sd) if sd > 0 else float(a * z >= 0.0)
            miss = (1.0 - p_pos) if theta0 + theta1 * z >= threshold else p_pos
            return stats.norm.pdf(z, scale=lag_sd) * miss

        if theta1 == 0.0:
            val, _ = integrate.quad(integrand, -np.inf, np.inf, limit=200)
            return val
        crossing = (threshold - theta0) / theta1
        left, _ = integrate.quad(integrand, -np.inf, crossing, limit=200)
        right, _ = integrate.quad(integrand, crossing, np.inf, limit=200)
        return left + right

    return np.array([risk_one(t0, t1) for t0, t1 in atoms.coords])


def true_risk_closed_form(spec: GeneratorSpec, atoms: AtomSet,
                          loss: LossKind | None = None) -> np.ndarray:
    """Exact expected risk per atom, when a closed form exists.

    Regression generators support the squared loss; the classification
    generator supports the zero-one loss at threshold 0 under a Gaussian
    design; Gaussian AR(1) additionally supports the zero-one loss via
    deterministic quadrature. Raises :class:`NoClosedFormError` otherwise.
    """
    if loss is None:
        loss = ZeroOneLoss() if isinstance(spec, BoundedClassification) else SquaredLoss()
    if isinstance(spec, (IidLinearRegression, AR1)) and isinstance(loss, SquaredLoss):
        return _residual_moments(spec, atoms, 2)[0]
    if isinstance(spec, BoundedClassification) and isinstance(loss, ZeroOneLoss):
        if loss.threshold == 0.0 and isinstance(spec.x_law, IsotropicGaussianX):
            if atoms.dim != spec.dim:
                raise ValueError("atom dimension does not match the generator")
            return _classification_risk(spec, atoms)
    if isinstance(spec, AR1) and isinstance(loss, ZeroOneLoss):
        if isinstance(spec.noise, GaussianNoise) and spec.noise.variance > 0:
            if atoms.dim != 2:
                raise ValueError("AR(1) atoms must be 2-dimensional")
            return _ar1_sign_risk(spec, atoms, loss.threshold)
    raise NoClosedFormError(
        f"no closed-form risk for {type(spec).__name__} with {type(loss).__name__}"
    )


def mixing_spec_for(spec: GeneratorSpec) -> MixingBoundSpec:
    """Envelope attached to the generator; independent rows give c1 = 0.

    The envelope for a dependent generator is an assumption supplied by the
    caller, never derived here, and must accompany any result that uses it.
    """
    if isinstance(spec, AR1):
        if spec.mixing is None:
            raise ValueError("AR(1) spec has no mixing envelope configured")
        return spec.mixing
    return MixingBoundSpec(c1=0.0, c2=1.0)


# ---------------------------------------------------------------------------
# Loss-moment closed forms consumed by the bound machinery
# ---------------------------------------------------------------------------

def squared_loss_variances(spec: IidLinearRegression, atoms: AtomSet) -> np.ndarray:
    """Exact Var[loss(theta)] per atom for i.i.d. squared-loss regression.

    With u = <theta_star - theta, x> + eps the loss is u^2, so the variance
    is E u^4 - (E u^2)^2.
    """
    if not isinstance(spec, IidLinearRegression):
        raise TypeError("exact loss variances are only defined for i.i.d. regression")
    eu2, eu4 = _residual_moments(spec, atoms, 4)
    return eu4 - eu2**2


def squared_loss_third_moments(spec: GeneratorSpec, atoms: AtomSet) -> np.ndarray:
    """Exact E[loss(theta)**3] per atom for the squared loss.

    This is E u**6 of the residual u. Requires sixth noise moments (dof > 6
    under Student-t) and, for i.i.d. regression, a Gaussian design.
    """
    if isinstance(spec, (IidLinearRegression, AR1)):
        return _residual_moments(spec, atoms, 6)[2]
    raise NoClosedFormError("third loss moments implemented for regression generators only")
