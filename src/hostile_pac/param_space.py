"""Parameter atoms and discrete probability distributions over them.

Every parameter-space integral in this package is an exact finite sum over
an ordered atom set; priors and aggregation distributions are plain weight
vectors aligned with the atoms by position. Atom order is fixed at
construction time and stable across the whole pipeline, so indices (e.g. the
empirical-risk minimizer) are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

# Constructors renormalize weight vectors within this slack and reject beyond.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AtomSet:
    """Ordered finite collection of parameter vectors, stored as a (K, k) array."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.atleast_2d(np.asarray(self.coords, dtype=float))
        if coords.size == 0:
            raise ValueError("atom set must be nonempty")
        if not np.all(np.isfinite(coords)):
            raise ValueError("atom coordinates must be finite")
        object.__setattr__(self, "coords", coords)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]

    def atom(self, j: int) -> np.ndarray:
        return self.coords[j]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Probability weights aligned with an :class:`AtomSet`.

    Weights must be nonnegative and sum to one; sums within ``WEIGHT_SUM_TOL``
    of one are silently renormalized, anything further off is rejected.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float).ravel()
        if w.size == 0:
            raise ValueError("weight vector must be nonempty")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        total = float(w.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {WEIGHT_SUM_TOL}")
        object.__setattr__(self, "weights", w / total)
        self.weights.setflags(write=False)

    def __len__(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        return cls(np.full(size, 1.0 / size))

    @classmethod
    def dirac(cls, size: int, index: int) -> "DiscreteDistribution":
        w = np.zeros(size)
        w[index] = 1.0
        return cls(w)


@dataclass(frozen=True)
class UniformGridPrior:
    """Uniform weights on a rectangular grid, one (lo, hi) pair per coordinate.

    Atoms are enumerated in row-major coordinate order (first coordinate
    varies slowest).
    """

    bounds: tuple[tuple[float, float], ...]
    points_per_axis: int | tuple[int, ...]


@dataclass(frozen=True)
class IidSamplePrior:
    """Uniform weights on atoms sampled i.i.d. from a base law.

    ``law`` is ``"gaussian"`` (isotropic, std ``scale``) or ``"uniform"``
    (box ``[-scale, scale]^dim``, or explicit per-coordinate ``bounds``).
    A ``seed`` stored here takes precedence over the seed passed to
    :func:`build_prior`.
    """

    count: int
    dim: int
    law: Literal["gaussian", "uniform"] = "gaussian"
    scale: float = 1.0
    bounds: tuple[tuple[float, float], ...] | None = None
    seed: int | None = None


@dataclass(frozen=True, eq=False)
class ExplicitPrior:
    """Caller-supplied atoms and weights, passed through unchanged."""

    atoms: np.ndarray
    weights: np.ndarray


PriorSpec = UniformGridPrior | IidSamplePrior | ExplicitPrior


def build_prior(spec: PriorSpec, seed: int = 0) -> tuple[AtomSet, DiscreteDistribution]:
    """Materialize a prior specification into an atom set and weight vector.

    Deterministic given ``(spec, seed)``. Grid and sampled priors carry
    uniform weights ``1/K``.
    """
    if isinstance(spec, UniformGridPrior):
        atoms = _grid_atoms(spec)
        return atoms, DiscreteDistribution.uniform(len(atoms))
    if isinstance(spec, IidSamplePrior):
        atoms = _sampled_atoms(spec, seed)
        return atoms, DiscreteDistribution.uniform(len(atoms))
    if isinstance(spec, ExplicitPrior):
        return AtomSet(spec.atoms), DiscreteDistribution(spec.weights)
    raise TypeError(f"unknown prior spec: {type(spec).__name__}")


def _grid_atoms(spec: UniformGridPrior) -> AtomSet:
    bounds = tuple(spec.bounds)
    if not bounds:
        raise ValueError("grid prior needs at least one coordinate")
    k = len(bounds)
    ppa = spec.points_per_axis
    counts = (ppa,) * k if isinstance(ppa, int) else tuple(ppa)
    if len(counts) != k:
        raise ValueError("points_per_axis does not match the number of coordinates")
    axes = []
    for (lo, hi), m in zip(bounds, counts):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid bounds must be finite")
        if m < 1:
            raise ValueError("each axis needs at least one grid point")
        axes.append(np.linspace(lo, hi, m))
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in mesh], axis=-1)
    if coords.shape[0] < 2:
        raise ValueError("grid prior must produce at least 2 atoms")
    return AtomSet(coords)


def _sampled_atoms(spec: IidSamplePrior, seed: int) -> AtomSet:
    if spec.count < 2:
        raise ValueError("sampled prior must produce at least 2 atoms")
    effective = spec.seed if spec.seed is not None else seed
    rng = np.random.default_rng(effective)
    if spec.law == "gaussian":
        coords = rng.standard_normal((spec.count, spec.dim)) * spec.scale
    elif spec.law == "uniform":
        if spec.bounds is not None:
            lo = np.array([b[0] for b in spec.bounds], dtype=float)
            hi = np.array([b[1] for b in spec.bounds], dtype=float)
        else:
            lo = np.full(spec.dim, -spec.scale)
            hi = np.full(spec.dim, spec.scale)
        coords = rng.uniform(lo, hi, (spec.count, lo.shape[0]))
    else:
        raise ValueError(f"unknown base law {spec.law!r}")
    return AtomSet(coords)


def expectation(dist: DiscreteDistribution, values: np.ndarray) -> float:
    """Weighted average of per-atom values: sum_j w_j * v_j."""
    values = np.asarray(values, dtype=float)
    if values.shape != dist.weights.shape:
        raise ValueError(f"length mismatch: {values.shape} values vs {dist.weights.shape} weights")
    return float(dist.weights @ values)


def prior_moment_tau(atoms: AtomSet, pi: DiscreteDistribution) -> float:
    """Prior fourth moment of the atom norm, sum_j pi_j * ||theta_j||^4.

    This is the kurtosis-coupling constant tau of the quadratic-loss variance
    bound.
    """
    if len(atoms) != len(pi):
        raise ValueError("atom set and distribution sizes differ")
    norms = np.linalg.norm(atoms.coords, axis=1)
    return float(pi.weights @ norms**4)
