"""Csiszar's power f-divergence between discrete distributions on a shared atom set.

The generator is f(x) = x**p - 1 for p > 1 (chi-square at p = 2).
Non-absolute-continuity returns ``inf`` rather than raising: a bound
evaluated at an infinite divergence is vacuously true and downstream code
propagates the infinity. The divergence is computed in one place,
:func:`power_divergence_plus_one`, in the D + 1 form the certificates use.
"""

from __future__ import annotations

import numpy as np

from .param_space import DiscreteDistribution, _rows


def f_divergence(rho: DiscreteDistribution, pi: DiscreteDistribution, p: float) -> float:
    """D = (D + 1) - 1 at p > 1. No package code calls it; the benchmark's
    tracer (``perfbench/tracing.py``) resolves it by name."""
    if not p > 1:
        raise ValueError(f"the power divergence requires p > 1, got p={p!r}")
    return float(power_divergence_plus_one(rho.weights[None], pi, p)[0]) - 1.0


def power_divergence_plus_one(rho: np.ndarray, pi: DiscreteDistribution, p: float) -> np.ndarray:
    """D + 1 = sum_j rho_j**p * pi_j**(1-p) of the power family, one per row of ``rho``.

    ``rho`` holds one row of weights per distribution, aligned with the atoms
    of the prior ``pi``; mass off ``pi.support`` gives +inf. Rows are read in
    place when every prior weight is positive. A term whose pi_j**(1-p)
    overflows is taken as pi_j * (rho_j/pi_j)**p, 0 at rho_j = 0.

    Raising rho_j/pi_j to the power p multiplies its relative rounding error
    by p, so the relative error of the computed D + 1 grows linearly in p. On
    the rho_hat of ``configs/bound_demo.yaml`` at ``experiment.p`` = 1e6, 1e9
    and 1e11, against a 60-digit decimal sum, it reads 3.8e-12, 2.6e-9 and
    9.4e-7; near p = 1e14 it is of the order of D itself.
    """
    rho, support = _rows(rho, len(pi)), pi.support
    off_support = isinstance(support, np.ndarray) and np.delete(rho, support, 1).sum(1) > 0
    rho, weights = np.ascontiguousarray(rho[:, support]), pi.weights[support]
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rho ** p
        terms *= weights ** (1.0 - p)
        overflow = ~np.isfinite(terms)
        if overflow.any():
            terms[overflow] = (weights * (rho / weights) ** p)[overflow]
    return np.where(off_support, np.inf, terms.sum(axis=1))
