"""Csiszar f-divergences between discrete distributions on a shared atom set.

Supported generators: the power family f(x) = x**p - 1 for p > 1 (chi-square
is ``PhiP(2)``) and KL (f = x log x, natural log). Non-absolute-continuity
returns ``inf`` rather than raising: a bound evaluated at an infinite
divergence is vacuously true and downstream code propagates the infinity. The
power family is computed in one place, :func:`power_divergence_plus_one`, in
the D + 1 form the certificates use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .param_space import DiscreteDistribution


@dataclass(frozen=True)
class PhiP:
    """Power generator f(x) = x**p - 1, requires p > 1."""

    p: float

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("PhiP requires p > 1")


@dataclass(frozen=True)
class KL:
    """Kullback-Leibler generator f(x) = x log x."""


DivergenceKind = PhiP | KL


def f_divergence(rho: DiscreteDistribution, pi: DiscreteDistribution,
                 kind: DivergenceKind) -> float:
    """D_f(rho, pi) = sum_j pi_j f(rho_j / pi_j), or +inf without domination.

    Atoms where both weights vanish contribute nothing; for KL the 0 log 0
    convention is 0.
    """
    if len(rho) != len(pi):
        raise ValueError("distributions live on different atom sets")
    r = rho.weights
    w = pi.weights
    if np.any(r[w == 0.0] > 0.0):
        return math.inf
    if isinstance(kind, KL):
        pos = r > 0.0
        return float(np.sum(r[pos] * np.log(r[pos] / w[pos])))
    return float(power_divergence_plus_one(r, w, kind.p)) - 1.0


def power_divergence_plus_one(rows: np.ndarray, pi_weights: np.ndarray,
                              p: float) -> np.ndarray:
    """D + 1 = sum_j rho_j**p * pi_j**(1-p) of the power family, per row.

    ``rows`` is one distribution (1-D) or a stack of them (2-D), aligned with
    ``pi_weights``; rows that put mass where pi has none get +inf.
    """
    rows = np.asarray(rows, dtype=float)
    support = pi_weights > 0
    vals = np.sum(rows[..., support] ** p * pi_weights[support] ** (1.0 - p), axis=-1)
    return np.where(rows[..., ~support].sum(axis=-1) > 0, np.inf, vals)


def divergence_plus_one_uniform(rho: DiscreteDistribution, size: int, p: float) -> float:
    """Closed form K**(p-1) * sum_j rho_j**p for a uniform reference measure.

    Equals ``f_divergence(rho, uniform, PhiP(p)) + 1`` and serves as its
    independent check.
    """
    if p <= 1:
        raise ValueError("requires p > 1")
    if len(rho) != size:
        raise ValueError("distribution size does not match the uniform reference")
    return float(size ** (p - 1.0) * np.sum(rho.weights**p))
