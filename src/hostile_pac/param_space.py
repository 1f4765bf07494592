"""Parameter atoms and discrete probability distributions over them.

Every parameter-space integral in this package is an exact finite sum over
an ordered atom set. The prior is a :class:`DiscreteDistribution`; per-atom
values and aggregation weights come as rows of shape (rows, K), one row per
dataset, aligned with the atoms by position (see :func:`_rows`). Atom order
is fixed at construction time and stable across the whole pipeline, so
indices (e.g. the empirical-risk minimizer) are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Constructors renormalize weight vectors within this slack and reject beyond.
WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AtomSet:
    """Ordered finite collection of parameter vectors, stored as a (K, k) array."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        coords = np.asarray(self.coords, dtype=float)
        if coords.ndim != 2 or coords.size == 0:
            raise ValueError(f"atoms must be a nonempty (K, k) array, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("atom coordinates must be finite")
        object.__setattr__(self, "coords", coords)
        self.coords.setflags(write=False)

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """Prior probability weights aligned with an :class:`AtomSet`.

    Weights must be nonnegative and sum to one; sums within ``WEIGHT_SUM_TOL``
    of one are silently renormalized, anything further off is rejected.
    ``support`` indexes the positive weights: ``slice(None)``, a view, when all are.
    """

    weights: np.ndarray
    support: slice | np.ndarray = field(init=False, repr=False)

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
        positive = self.weights > 0
        object.__setattr__(self, "support",
                           slice(None) if positive.all() else np.flatnonzero(positive))

    def __len__(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def uniform(cls, size: int) -> "DiscreteDistribution":
        return cls(np.full(size, 1.0 / size))


@dataclass(frozen=True)
class IidSamplePrior:
    """Uniform weights on atoms sampled i.i.d. from the isotropic Gaussian of
    std ``scale``; ``scale = 0`` puts every atom at the origin. A ``seed``
    stored here takes precedence over the seed passed to :func:`build_prior`.
    """

    count: int
    dim: int
    scale: float = 1.0
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.count < 2:
            raise ValueError(f"count must be at least 2, got {self.count}")
        if not self.scale >= 0:
            raise ValueError(f"scale must be nonnegative, got {self.scale}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class ExplicitPrior:
    """Caller-supplied atoms and weights, passed through unchanged."""

    atoms: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if len(AtomSet(self.atoms)) != len(DiscreteDistribution(self.weights)):
            raise ValueError("weights needs one entry per row of atoms")

    @property
    def dim(self) -> int:
        return AtomSet(self.atoms).dim


PriorSpec = IidSamplePrior | ExplicitPrior


def build_prior(spec: PriorSpec, seed: int = 0) -> tuple[AtomSet, DiscreteDistribution]:
    """Materialize a prior specification into an atom set and weight vector.

    Deterministic given ``(spec, seed)``. A sampled prior carries uniform
    weights ``1/K``.
    """
    if isinstance(spec, ExplicitPrior):
        return AtomSet(spec.atoms), DiscreteDistribution(spec.weights)
    if not isinstance(spec, IidSamplePrior):
        raise TypeError(f"unknown prior spec: {type(spec).__name__}")
    rng = np.random.default_rng(spec.seed if spec.seed is not None else seed)
    # + 0.0 turns the -0.0 of a negative draw times scale 0 into the origin's +0.0.
    atoms = AtomSet(rng.standard_normal((spec.count, spec.dim)) * spec.scale + 0.0)
    return atoms, DiscreteDistribution.uniform(len(atoms))


def _rows(values, size: int | None = None) -> np.ndarray:
    """``values`` as float rows of shape (rows, K), one per dataset, with K =
    ``size`` atoms when given; the one shape check of the certificate chain."""
    rows = np.asarray(values, dtype=float)
    if rows.ndim != 2 or size not in (None, rows.shape[1]):
        atoms = "K" if size is None else f"K = {size}"
        raise ValueError(f"expected rows of shape (rows, {atoms}), one per dataset; "
                         f"got shape {rows.shape}")
    return rows


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of ``a`` with the same row of ``b``, or with ``b`` when
    it is one vector: the one weighted row sum, reading its own row only."""
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def expectation(dist: DiscreteDistribution, values: np.ndarray) -> np.ndarray:
    """Weighted average of per-atom values, sum_j w_j * v_j, one per row of ``values``."""
    return _row_dots(_rows(values, len(dist)), dist.weights)
