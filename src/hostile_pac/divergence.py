"""Csiszar's power f-divergence between discrete distributions on a shared atom set.

The generator is f(x) = x**p - 1 for p > 1 (chi-square is ``PhiP(2)``).
Non-absolute-continuity returns ``inf`` rather than raising: a bound
evaluated at an infinite divergence is vacuously true and downstream code
propagates the infinity. The divergence is computed in one place,
:func:`power_divergence_plus_one`, in the D + 1 form the certificates use.
:func:`f_divergence` returns D itself; no part of the certificate chain calls
it, and it stays only while the benchmark's tracer (``perfbench/tracing.py``)
looks it up by name.
"""

from __future__ import annotations

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


def f_divergence(rho: DiscreteDistribution, pi: DiscreteDistribution,
                 kind: PhiP) -> float:
    """D_f(rho, pi) = sum_j pi_j f(rho_j / pi_j), or +inf without domination.

    Atoms where both weights vanish contribute nothing.
    """
    if len(rho) != len(pi):
        raise ValueError("distributions live on different atom sets")
    return power_divergence_plus_one(rho.weights, pi.weights, kind.p) - 1.0


def power_divergence_plus_one(rho: np.ndarray, pi_weights: np.ndarray,
                              p: float) -> float | np.ndarray:
    """D + 1 = sum_j rho_j**p * pi_j**(1-p) of the power family.

    ``rho`` is one distribution's weights, aligned with ``pi_weights``, or one
    row of weights per distribution, giving one D + 1 per row; mass where pi
    has none gives +inf. A term whose pi_j**(1-p) overflows is taken as
    pi_j * (rho_j/pi_j)**p, 0 at rho_j = 0.
    """
    rho = np.asarray(rho, dtype=float)
    support = pi_weights > 0
    off_support = rho.take(np.flatnonzero(~support), axis=-1).sum(axis=-1) > 0
    rho, pi = rho.take(np.flatnonzero(support), axis=-1), pi_weights[support]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rho ** p * pi ** (1.0 - p)
        overflow = ~np.isfinite(terms)
        if overflow.any():
            terms[overflow] = (pi * (rho / pi) ** p)[overflow]
    total = np.where(off_support, np.inf, terms.sum(axis=-1))
    return float(total) if total.ndim == 0 else total
