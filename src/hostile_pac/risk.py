"""Losses, datasets, loss tables and empirical risk for linear predictors.

The only predictor family is linear, f_theta(x) = <theta, x>. Empirical
risks come from :func:`empirical_risks`: a closed form for the squared loss,
the column means of the n x K loss table for the other losses. The table, a
plain array, stays the reference for every loss and the input of the
per-observation routines (replicated moment estimates). A zero-one table is
boolean, one byte per entry; the squared-loss table is float. Row order of a
dataset is significant (dependence structure lives in the order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .param_space import AtomSet

# Values of [x | y] per QR call, which copies them twice: 32 datasets at n = 200, k = 2,
# 0.70 ms at a 481 KB peak against 1.24 ms and 1,648 KB in one call (167 rows, K = 100);
# at n = 1,000, 6 a call cut oracle_rate_gaussian's page faults from 3,260 to 1,436.
QR_CHUNK_VALUES = 19200


@dataclass(frozen=True)
class SquaredLoss:
    """(y - prediction)**2."""


@dataclass(frozen=True)
class ZeroOneLoss:
    """Sign-classification error.

    Predicted label is +1 when the linear score is >= threshold, else -1;
    the true label is the sign of y (sign(0) = +1). Loss is 1 on mismatch.
    """

    threshold: float = 0.0


LossKind = SquaredLoss | ZeroOneLoss


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered observations (x_i, y_i), x stored as an (n, k) array.

    A stacked dataset holds datasets of one length n as x of shape
    (rows, n, k) and y of shape (rows, n), one row per dataset. Its length
    is n, as for one dataset.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim < 3:
            x, y = np.atleast_2d(x), y.ravel()
        if x.ndim > 3:
            raise ValueError("x must be an (n, k) array or a stack of them")
        if x.shape[:-1] != y.shape:
            raise ValueError("x and y row counts differ")
        if y.size == 0:
            raise ValueError("dataset must be nonempty")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        self.x.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return self.y.shape[-1]

    @property
    def dim(self) -> int:
        return self.x.shape[-1]


def _check_dims(data: Dataset, atoms: AtomSet) -> None:
    if data.dim != atoms.dim:
        raise ValueError(f"atom dimension {atoms.dim} does not match x dimension {data.dim}")


def compute_loss_table(data: Dataset, atoms: AtomSet, loss: LossKind) -> np.ndarray:
    """The (n, K) losses of every atom's linear predictor on every observation,
    stacked to (rows, n, K) for a stacked dataset.

    The squared loss is computed in place in the one array of predictions,
    and can overflow. The zero-one table is the boolean mismatch mask, True
    where the predicted label misses; its column means are the float means
    of 0 and 1, bit for bit, since sums of 0 and 1 are exact. Kept for the
    benchmark and ``tests/oracles.py``; the certificate chain does not call it.
    """
    _check_dims(data, atoms)
    return _loss_table(data.x, data.y, atoms.coords, loss)


def _loss_table(x: np.ndarray, y: np.ndarray, coords: np.ndarray, loss: LossKind) -> np.ndarray:
    table = x @ coords.T
    y = y[..., None]
    if isinstance(loss, SquaredLoss):
        np.subtract(y, table, out=table)
        np.square(table, out=table)
        # Entries are >= 0, so the max is finite exactly when all are; NaN propagates.
        if not np.isfinite(table.max()):
            raise ValueError("loss entries must be finite")
    elif isinstance(loss, ZeroOneLoss):
        table = table >= loss.threshold
        np.not_equal(table, y >= 0.0, out=table)
    else:
        raise TypeError(f"unknown loss kind: {type(loss).__name__}")
    return table


def empirical_risk(table: np.ndarray) -> np.ndarray:
    """Column means of the loss table: average loss of each atom. Kept
    for the benchmark and ``tests/oracles.py``; the certificate chain does not call it."""
    return table.mean(axis=0)


def empirical_risks(data: Dataset, atoms: AtomSet, loss: LossKind) -> np.ndarray:
    """Empirical risk r_n of every atom on each dataset of a stacked ``data``,
    as rows of shape (rows, K), one per dataset. One dataset is the one-row
    stack, x[None] and y[None] in and ``[0]`` out.

    For the squared loss, let R be the triangular factor of the augmented
    design [x | y] (the thin QR of its n x (k+1) columns). Its first k rows
    are [R_x | z], and its last entry, when n > k, is the residual norm rho
    of the least-squares fit. Since [x | y] (theta, -1) = x theta - y and the
    orthonormal factor keeps lengths,

        r_n(theta) = (rho^2 + |R_x theta - z|^2) / n.

    The identity is exact for every design (n <= k and collinear columns
    included), needs no least-squares solve, and as a sum of squares it is
    never negative. It costs O(n k^2 + K k^2) per dataset instead of the
    O(n K) of the loss table; a stacked dataset takes one QR call per
    ``QR_CHUNK_VALUES`` of [x | y] (each matrix factored alone, so R keeps its
    bits) and one (rows, k, K) product for the fit R_x theta - z of every atom.
    The other losses average each dataset's table, one table at a time.
    """
    _check_dims(data, atoms)
    if data.x.ndim != 3:
        raise ValueError(f"empirical_risks takes a stacked dataset, x of shape (rows, n, k), "
                         f"got shape {data.x.shape}")
    x, y = data.x, data.y
    if not isinstance(loss, SquaredLoss):
        risks = np.stack([_loss_table(xi, yi, atoms.coords, loss).mean(axis=0)
                          for xi, yi in zip(x, y)])
    else:
        k, n = atoms.dim, x.shape[1]
        r, step = np.empty((len(x), min(n, k + 1), k + 1)), max(1, QR_CHUNK_VALUES // (n * (k + 1)))
        for part in (slice(i, i + step) for i in range(0, len(x), step)):
            r[part] = np.linalg.qr(np.concatenate([x[part], y[part, :, None]], axis=-1), mode="r")
        # R has min(n, k + 1) rows, so the fit is (rows, min(n, k), K).
        fit = r[:, :k, :k] @ atoms.coords.T
        fit -= r[:, :k, k:]
        rho = r[:, k:, k]
        risks = np.einsum("ijk,ijk->ik", fit, fit)
        risks += np.einsum("ij,ij->i", rho, rho)[:, None]
        risks /= n
        if not np.all(np.isfinite(risks)):
            raise ValueError("empirical risks must be finite")
    return risks
