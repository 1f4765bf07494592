"""Losses, datasets, loss tables and empirical risk for linear predictors.

The only predictor family is linear, f_theta(x) = <theta, x>. Empirical
risks come from :func:`empirical_risks`: a closed form for the squared loss,
the column means of the n x K loss table for the other losses. The table
stays the reference for every loss and the input of the per-observation
routines (replicated moment estimates). Row order of a dataset is
significant (dependence structure lives in the order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .param_space import AtomSet


@dataclass(frozen=True)
class SquaredLoss:
    """(y - prediction)**2."""


@dataclass(frozen=True)
class AbsoluteLoss:
    """|y - prediction|."""


@dataclass(frozen=True)
class ZeroOneLoss:
    """Sign-classification error.

    Predicted label is +1 when the linear score is >= threshold, else -1;
    the true label is the sign of y (sign(0) = +1). Loss is 1 on mismatch.
    """

    threshold: float = 0.0


LossKind = SquaredLoss | AbsoluteLoss | ZeroOneLoss


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered observations (x_i, y_i), x stored as an (n, k) array."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_2d(np.asarray(self.x, dtype=float))
        y = np.asarray(self.y, dtype=float).ravel()
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y row counts differ")
        if x.shape[0] == 0:
            raise ValueError("dataset must be nonempty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True, eq=False)
class LossTable:
    """Per-observation, per-atom losses: losses[i, j] = loss_i(theta_j)."""

    losses: np.ndarray

    def __post_init__(self) -> None:
        losses = np.atleast_2d(np.asarray(self.losses, dtype=float))
        if losses.size == 0:
            raise ValueError("loss table must be nonempty")
        # Reductions, not n x K boolean temporaries; NaN propagates through both.
        lo, hi = losses.min(), losses.max()
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("loss entries must be finite")
        if lo < 0:
            raise ValueError("loss entries must be nonnegative")
        object.__setattr__(self, "losses", losses)
        self.losses.setflags(write=False)

    @property
    def n(self) -> int:
        return self.losses.shape[0]

    @property
    def num_atoms(self) -> int:
        return self.losses.shape[1]


def _check_dims(data: Dataset, atoms: AtomSet) -> None:
    if data.dim != atoms.dim:
        raise ValueError(f"atom dimension {atoms.dim} does not match x dimension {data.dim}")


def compute_loss_table(data: Dataset, atoms: AtomSet, loss: LossKind) -> LossTable:
    """Evaluate the loss of every atom's linear predictor on every observation.

    The squared and absolute losses are computed in place in the one n x K
    array of predictions.
    """
    _check_dims(data, atoms)
    table = data.x @ atoms.coords.T
    y = data.y[:, None]
    if isinstance(loss, SquaredLoss):
        np.subtract(y, table, out=table)
        np.square(table, out=table)
    elif isinstance(loss, AbsoluteLoss):
        np.subtract(y, table, out=table)
        np.abs(table, out=table)
    elif isinstance(loss, ZeroOneLoss):
        mismatch = table >= loss.threshold
        del table
        np.not_equal(mismatch, y >= 0.0, out=mismatch)
        table = mismatch.astype(float)
    else:
        raise TypeError(f"unknown loss kind: {type(loss).__name__}")
    return LossTable(table)


def empirical_risk(table: LossTable) -> np.ndarray:
    """Column means of the loss table: average loss of each atom."""
    return table.losses.mean(axis=0)


def empirical_risks(data: Dataset, atoms: AtomSet, loss: LossKind) -> np.ndarray:
    """Empirical risk r_n of every atom on ``data``.

    For the squared loss, with theta0 the minimum-norm least-squares fit,
    e0 = y - x theta0 its residual and R the triangular factor of x,

        r_n(theta) = (e0 . e0 + |R (theta - theta0)|^2) / n.

    e0 is orthogonal to the column space of x and |x v| = |R v| for every v,
    so the identity is exact for every design (n < k and collinear columns
    included), and as a sum of two squares it is never negative. It costs
    O(n k^2 + K k^2) instead of the O(n K) of the loss table. The other
    losses average the table.
    """
    if not isinstance(loss, SquaredLoss):
        return empirical_risk(compute_loss_table(data, atoms, loss))
    _check_dims(data, atoms)
    theta0 = np.linalg.lstsq(data.x, data.y, rcond=None)[0]
    e0 = data.y - data.x @ theta0
    fit = (atoms.coords - theta0) @ np.linalg.qr(data.x, mode="r").T
    risks = (e0 @ e0 + np.einsum("ij,ij->i", fit, fit)) / len(data)
    if not np.all(np.isfinite(risks)):
        raise ValueError("empirical risks must be finite")
    return risks

