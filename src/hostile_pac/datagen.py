"""Synthetic hostile-data generators with analytically known moments and risks.

Three processes are built in: i.i.d. linear regression with heavy-tailed
noise, a first-order autoregression observed through the design x_i =
(1, y_{i-1}), and bounded sign classification with label flips. Each carries
closed forms for the moments and true risks that the guarantee chain needs,
so coverage experiments never feed estimated constants back into a bound.

Every command reads one dataset stream: dataset ``i`` of run ``seed`` draws from
``SeedSequence([seed, 0, i])`` in any block of ``generate(spec, n, seed, indices)``;
``_seed_sequences`` hashes a block's seeds in one pass, bit for bit as numpy does.

Mixing envelopes (c1, c2) are configuration, not estimation: the generator
records the assumed geometric bound on the alpha-mixing coefficients and
every consumer reports it alongside results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .param_space import AtomSet
from .risk import Dataset, LossKind, SquaredLoss, ZeroOneLoss

AR1_BURN_IN = 1000  # draws per burn-in chunk, where the stationary law has no closed form
AR1_MAX_BURN_IN_CHUNKS = 1024  # about 10**6 draws per dataset, for |a| up to about 0.99998


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
    """E[eps**order] for even order >= 2, inf past the largest double: (order - 1)!!
    times v**(order/2) for a Gaussian, or times s**order and nu / (nu - m) for each
    even m <= order for a Student-t, one factor at a time so it stays finite at any dof.
    The Student-t moment exists only for dof > order; odd moments vanish by symmetry."""
    if order < 2 or order % 2:
        raise ValueError(f"noise moments are served for even orders >= 2, got {order}")
    if isinstance(noise, StudentTNoise) and noise.dof <= order:
        raise MomentDoesNotExistError(
            f"Student-t moment of order {order} requires dof > {order}, got {noise.dof}"
        )
    double_factorial = math.prod(range(order - 1, 0, -2))
    try:  # Python's float power raises where numpy's would give inf
        if isinstance(noise, GaussianNoise):
            return double_factorial * noise.variance ** (order // 2)
        moment = double_factorial * noise.scale**order
        for m in range(2, order + 1, 2):
            moment = moment * noise.dof / (noise.dof - m)
        return moment
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class IsotropicGaussianX:
    """Coordinates drawn independently from N(0, scale**2)."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale >= 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")


XLaw = IsotropicGaussianX


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
        if (isinstance(self.noise, StudentTNoise)
                and burn_in_chunks(self.a) > AR1_MAX_BURN_IN_CHUNKS):
            raise ValueError(f"generator.a={self.a!r}: a Student-t AR(1) burns in over at most "
                             f"{AR1_MAX_BURN_IN_CHUNKS} chunks of {AR1_BURN_IN} draws, so the "
                             f"largest |a| accepted is {largest_burn_in_a()!r}")

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


def _unscaled_noise(noise: NoiseLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """n noise draws, Student-t ones before ``_scale_noise`` applies their scale."""
    if isinstance(noise, GaussianNoise):
        return rng.normal(0.0, math.sqrt(noise.variance), n)
    return rng.standard_t(noise.dof, n)


def _scale_noise(noise: NoiseLaw, draws: np.ndarray) -> np.ndarray:
    """``_unscaled_noise`` draws, of one row or a block of rows, scaled in place."""
    if isinstance(noise, StudentTNoise):
        draws *= noise.scale
    return draws


def _ar1_path(a: float, y0: float | np.ndarray, y: np.ndarray) -> np.ndarray:
    """Recursion y_i = eps_i + a * y_{i-1} from y0, as a doubling scan along the
    last axis, in place: the float array ``y`` holds eps on entry and the path on return.

    After the step at k, y_i = sum_{j < 2k} a**j * eps_{i-j}, with a * y0 added to eps_0.
    Given rows of innovations and one y0 per row, every row is scanned at once.
    """
    y[..., 0] += a * y0
    k = 1
    while k < y.shape[-1]:
        y[..., k:] += a**k * y[..., :-k]
        k *= 2
    return y


def burn_in_chunks(a: float) -> int:
    """Chunks of ``AR1_BURN_IN`` draws that a burn-in from 0 takes at coefficient ``a``:
    the fewest, a power of two, after which the start misses a**(2 steps) <= 2**-53
    of the stationary variance (one chunk for |a| <= 2**(-53/2000), about 0.9818)."""
    chunks = 1
    while abs(a) ** (2 * AR1_BURN_IN * chunks) > 2.0**-53:
        chunks *= 2
    return chunks


def largest_burn_in_a() -> float:
    """The largest |a| whose burn-in takes at most ``AR1_MAX_BURN_IN_CHUNKS`` chunks."""
    a = 2.0 ** (-53 / (2 * AR1_BURN_IN * AR1_MAX_BURN_IN_CHUNKS))  # an ulp above it
    while burn_in_chunks(a) > AR1_MAX_BURN_IN_CHUNKS:
        a = math.nextafter(a, 0.0)
    return a


def _draw(spec: GeneratorSpec, n: int, seeds: list) -> tuple[np.ndarray, np.ndarray]:
    """One dataset per ``default_rng`` seed, as x of shape (rows, n, k) and y of shape (rows, n).

    Per row, the only work is the generator's fills, in its stream order; the
    arithmetic on them and the validation run once per block, in place where they can.
    """
    rngs = list(map(np.random.default_rng, seeds))
    rows = len(rngs)
    if isinstance(spec, (IidLinearRegression, BoundedClassification)):
        regression = isinstance(spec, IidLinearRegression)
        x, draws = np.empty((rows, n, spec.dim)), np.empty((rows, n))
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=x[i])
            if regression:
                draws[i] = _unscaled_noise(spec.noise, n, rng)
            else:
                rng.random(out=draws[i])
        x *= spec.x_law.scale
        score = x @ np.asarray(spec.theta_star)
        if regression:
            return x, np.add(_scale_noise(spec.noise, draws), score, out=draws)
        return x, np.where((score >= 0.0) != (draws < spec.flip_prob), 1.0, -1.0)
    if isinstance(spec, AR1):
        if n < 2:
            raise ValueError("AR(1) needs n >= 2")
        eps, y0 = np.empty((rows, n)), np.zeros(rows)
        if isinstance(spec.noise, GaussianNoise):
            stationary_sd = math.sqrt(_ar1_y_moments(spec, 2))
            for i, rng in enumerate(rngs):
                y0[i] = rng.normal(0.0, stationary_sd)
                eps[i] = _unscaled_noise(spec.noise, n, rng)
        else:
            # No closed-form stationary law for t innovations: burn in from 0,
            # folding each chunk in as drawn by its pairwise sum_j a**j chunk_{-1-j}
            # (Horner over the chunks).
            chunks = burn_in_chunks(spec.a)
            powers = spec.a ** np.arange(AR1_BURN_IN - 1, -1, -1)
            for i, rng in enumerate(rngs):
                for _ in range(chunks):
                    chunk = _scale_noise(spec.noise, _unscaled_noise(spec.noise, AR1_BURN_IN, rng))
                    y0[i] = spec.a**AR1_BURN_IN * y0[i] + (chunk * powers).sum()
                eps[i] = _unscaled_noise(spec.noise, n, rng)
        y = _ar1_path(spec.a, y0, _scale_noise(spec.noise, eps))
        x = np.empty((rows, n, 2))
        x[:, :, 0] = 1.0
        x[:, 0, 1] = y0
        x[:, 1:, 1] = y[:, :-1]
        return x, y
    raise TypeError(f"unknown generator spec: {type(spec).__name__}")


# numpy's SeedSequence hash (M. E. O'Neill's seed_seq, 2015) on uint32 words: a pool of
# four words mixes the entropy in, and an output hash cycles the pool into state words.
# A hash step XORs in a constant, multiplies by the next and folds the high half down;
# the pool's constants run _INIT_A * _MULT_A**j, the output's _INIT_B * _MULT_B**j, and
# two pool words meet as mix(x, y) = _MIX_L x - _MIX_R y, folded the same way.
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _HALF = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHERS = [np.array([j for j in range(_POOL_SIZE) if j != i]) for i in range(_POOL_SIZE)]


@cache
def _hash_constants(init: int, mult: int, steps: int) -> np.ndarray:
    """init * mult**j mod 2**32, j = 0..steps, for ``steps`` hash steps; read-only, shared."""
    constants = np.array([init * pow(mult, j, 2**32) % 2**32 for j in range(steps + 1)], np.uint32)
    constants.flags.writeable = False
    return constants


def _hashed(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """One hash step per constant but the last, ``words`` broadcast against them."""
    out = words ^ constants[:-1]
    out *= constants[1:]
    out ^= out >> _HALF
    return out


def _mixed(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """mix(x, y), computed in the two arrays, which the caller no longer needs."""
    x *= _MIX_L
    y *= _MIX_R
    x -= y
    x ^= x >> _HALF
    return x


def _pools(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.pool`` of each row of uint32 entropy words, the rows zero-padded to
    at least four words: numpy's ``mix_entropy``, every row at once."""
    width = entropy.shape[1]
    steps = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)[:, None]
    words = entropy.T  # a row per word, a column per dataset
    pool = _hashed(words[:_POOL_SIZE], steps[:_POOL_SIZE + 1])
    for src, dst in enumerate(_OTHERS):  # every pool word into every other
        step = _POOL_SIZE + (_POOL_SIZE - 1) * src
        pool[dst] = _mixed(pool[dst], _hashed(pool[src], steps[step:step + _POOL_SIZE]))
    for src in range(_POOL_SIZE, width):  # the words past the pool, into every pool word
        step = _POOL_SIZE * src
        pool = _mixed(pool, _hashed(words[src], steps[step:step + _POOL_SIZE + 1]))
    return pool.T


@cache
def _block_seed_class() -> type:
    """The class of the block seeds, made on first use: importing leaves numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class BlockSeed(ISeedSequence):
        """One dataset's ``SeedSequence`` as PCG64 reads it: ``generate_state(4, np.uint64)``
        returns a new array of its four words, and any other request raises ValueError."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("a block seed gives only PCG64's generate_state(4, np.uint64)")
            return self.words.copy()

    return BlockSeed


def _seed_sequences(seed: int,
                    indices: range | list[int]) -> list[np.random.bit_generator.ISeedSequence]:
    """The seed sequence ``[seed, 0, index]`` of each dataset index, every index below 2**32.

    numpy reads that entropy as the seed's little-endian 32-bit words (0 is the one
    word 0), then 0 and the index: a uint32 row per index, down whose columns the
    hash runs once. Each row gets a light ``ISeedSequence`` holding the four words
    of ``SeedSequence([seed, 0, index]).generate_state(4, np.uint64)``.
    """
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = np.zeros((len(indices), max(len(words) + 2, _POOL_SIZE)), dtype=np.uint32)
    entropy[:, :len(words) + 1] = [*words, 0]
    entropy[:, len(words) + 1] = indices
    # Eight uint32 output words, the pool cycled twice, read as little-endian uint64 pairs.
    state = _hashed(np.tile(_pools(entropy), 2), _hash_constants(_INIT_B, _MULT_B, 8))
    return list(map(_block_seed_class(),
                    state.astype("<u4", copy=False).view("<u8").astype(np.uint64)))


def generate(spec: GeneratorSpec, n: int, seed: int | list[int] | np.random.SeedSequence,
             indices: range | list[int] | None = None) -> Dataset:
    """Draw a dataset of length n; bit-reproducible for a fixed seed.

    Without ``indices``, ``seed`` is anything ``np.random.default_rng`` takes (a list of
    ints is one entropy seed). With ``indices``, the datasets of those indices in the
    stream of run ``seed`` come stacked, a row each, bit for bit as drawn one by one.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if indices is None:
        x, y = _draw(spec, n, [seed])
        return Dataset(x[0], y[0])
    if seed < 0 or min(indices, default=-1) < 0 or max(indices) >= 2**32:
        raise ValueError("a stacked draw takes a seed >= 0 and indices in [0, 2**32)")
    return Dataset(*_draw(spec, n, _seed_sequences(seed, indices)))


# ---------------------------------------------------------------------------
# Closed-form moments
# ---------------------------------------------------------------------------

def _ar1_y_moments(spec: AR1, order: int) -> float:
    """Stationary E[y**order], even order: y = a * y_lag + eps in law, so
    E y**2m (1 - a**2m) is ``_sum_moments``' sum over the lower orders of y_lag."""
    noise = [noise_moment(spec.noise, k) for k in range(2, order + 1, 2)]
    lag = []  # E (a * y_lag)**2m of the orders solved so far
    for m in range(1, order // 2 + 1):
        moment = _sum_moments([*lag, 0.0], noise[:m])[-1] / (1.0 - spec.a ** (2 * m))
        lag.append(spec.a ** (2 * m) * moment)
    return moment


def _sum_moments(x: list, y: list) -> list:
    """Even moments of X + Y from those of independent X and Y, X symmetric.

    ``x`` and ``y`` list E X**2, E X**4, ...; the odd moments of X vanish, so
    E (X + Y)**2m = sum_k binom(2m, 2k) E X**2k E Y**(2m - 2k).
    """
    x, y = [1.0, *x], [1.0, *y]
    return [sum(math.comb(2 * m, 2 * k) * x[k] * y[m - k] for k in range(m, -1, -1))
            for m in range(1, len(x))]


def residual_moments(spec: IidLinearRegression | AR1, atoms: AtomSet,
                     top: int) -> list[np.ndarray]:
    """[E u**2, E u**4, ...] up to order ``top`` per atom, u = y - <theta, x>.

    The squared loss is u**2, so these are its moments E loss**k: the true
    risk is E u**2, the loss variance E u**4 - (E u**2)**2 and the third loss
    moment E u**6. For i.i.d. regression u is the score <theta_star - theta, x>
    plus the noise; for AR(1) it is (a - theta_1) y_lag plus the innovation,
    shifted by the constant -theta_0. Raises :class:`MomentDoesNotExistError`
    when a noise moment up to ``top`` diverges.
    """
    if atoms.dim != spec.dim:
        raise ValueError("atom dimension does not match the generator")
    orders = range(2, top + 1, 2)
    noise = [noise_moment(spec.noise, k) for k in orders]
    if isinstance(spec, IidLinearRegression):
        # The score is N(0, m2) under the Gaussian design; np.float64 overflows to inf.
        w = np.asarray(spec.theta_star) - atoms.coords
        m2 = np.float64(spec.x_law.scale) ** 2 * np.sum(w**2, axis=1)
        return _sum_moments([noise_moment(GaussianNoise(), k) * m2 ** (k // 2)
                             for k in orders], noise)
    intercept, lag_w = atoms.coords[:, 0], atoms.coords[:, 1]
    lag = [(spec.a - lag_w) ** k * _ar1_y_moments(spec, k) for k in orders]
    return _sum_moments(_sum_moments(lag, noise), [intercept**k for k in orders])


def kappa_moments(spec: IidLinearRegression) -> tuple[float, float]:
    """(E y**4, E ||X||**4) of i.i.d. regression, the data moments of kappa.

    y is the residual of the zero atom. Raises
    :class:`MomentDoesNotExistError` when the fourth noise moment diverges.
    """
    zero = AtomSet(np.zeros((1, spec.dim)))
    k = spec.dim
    ex4 = float(np.float64(spec.x_law.scale) ** 4 * k * (k + 2))  # overflows to inf
    return float(residual_moments(spec, zero, 4)[1][0]), ex4


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
    """Sign-prediction risk for Gaussian AR(1), in closed form.

    Lag and y are N(0, lag_sd**2) with correlation a. With h = (threshold -
    theta0) / (|theta1| lag_sd) and rho = sign(theta1) a, the Drezner-Wesolowsky
    orthant integral (Genz 2004, Stat. Comput. 14:251) turns the risk
    P(Z1 >= h) + 1/2 - 2 P(Z1 >= h, Z2 >= 0) into
    1/2 - (1/pi) int_0^{asin rho} exp(-h**2 / (2 cos(t)**2)) dt. Substituting
    cos(t) = 1 / cosh(v) gives int_0^{atanh rho} exp(-(h cosh(v))**2 / 2) / cosh(v) dv,
    whose features are O(1) wide in v however near |a| is to 1, so Gauss-Legendre
    nodes in proportion to atanh|a| (at least 40) are exact to 1e-14 for every |a| < 1.
    """
    intercept, slope = atoms.coords[:, 0], atoms.coords[:, 1]
    lag_sd = math.sqrt(_ar1_y_moments(spec, 2))
    h = np.divide(threshold - intercept, np.abs(slope) * lag_sd,
                  out=np.zeros(len(atoms)), where=slope != 0.0)
    upper = math.atanh(spec.a)
    nodes, weights = np.polynomial.legendre.leggauss(max(40, math.ceil(12 * abs(upper))))
    cosh = np.cosh(upper * (nodes + 1.0) / 2.0)  # even integrand: sign(rho) factors out
    integral = upper / 2.0 * ((np.exp(-0.5 * (h[:, None] * cosh) ** 2) / cosh) @ weights)
    return 0.5 - np.sign(slope) * integral / math.pi


def true_risk_closed_form(spec: GeneratorSpec, atoms: AtomSet, loss: LossKind) -> np.ndarray:
    """Exact expected risk per atom, when a closed form exists.

    Regression generators support the squared loss; the classification
    generator supports the zero-one loss at threshold 0; Gaussian AR(1)
    additionally supports the zero-one loss at any threshold. Raises
    :class:`NoClosedFormError` otherwise, naming the config key that rules
    the closed form out.
    """
    if atoms.dim != spec.dim:
        raise ValueError("atom dimension does not match the generator")
    if isinstance(spec, (IidLinearRegression, AR1)) and isinstance(loss, SquaredLoss):
        return residual_moments(spec, atoms, 2)[0]
    if (isinstance(spec, BoundedClassification) and isinstance(loss, ZeroOneLoss)
            and loss.threshold == 0.0):
        return _classification_risk(spec, atoms)
    if isinstance(spec, AR1) and isinstance(loss, ZeroOneLoss):
        if isinstance(spec.noise, GaussianNoise) and spec.noise.variance > 0:
            return _ar1_sign_risk(spec, atoms, loss.threshold)
        raise NoClosedFormError("generator.noise: the zero-one risk of AR1 has a closed form "
                                "only under Gaussian innovations of positive variance")
    raise NoClosedFormError(f"experiment.loss and generator.kind: no closed-form risk for "
                            f"{type(spec).__name__} with {type(loss).__name__}")
