"""Differentiable losses: squared error and binary cross-entropy.

A loss is its name, ``SQUARED`` or ``LOGISTIC`` (``data_model.LOSS_IDS``); a
model is unlearned under the loss it was pretrained with. Values and
gradients are sums over the dataset's rows, not means. The squared loss
carries no 1/2 factor, so its gradient is -2 X'(y - X theta); the factor of
two cancels inside the closed-form unlearning algebra. In the dataset's
statistics it is -2 n (m - sigma theta), which :func:`loss_grad` also takes;
the logistic loss needs the rows.
"""

from __future__ import annotations

import numpy as np

from .data_model import LOSS_IDS, Dataset, SufficientStats, check_loss
from .errors import DimensionMismatch

SQUARED, LOGISTIC = LOSS_IDS


def _check_args(loss: str, theta, d: Dataset | SufficientStats) -> np.ndarray:
    check_loss(loss)
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (d.p,):
        raise DimensionMismatch(
            f"theta has shape {theta.shape}, dataset has p={d.p}"
        )
    return theta


def _check_labels(d: Dataset) -> None:
    if d.n and not np.all((d.y == 0.0) | (d.y == 1.0)):
        raise ValueError("logistic loss requires responses in {0, 1}")


def sigmoid(u: np.ndarray) -> np.ndarray:
    """The logistic function 1/(1 + exp(-u)), within 2.3e-16 of exact.

    At u below about -709, exp(-u) overflows to inf and the value is 0, its
    correctly rounded answer; the overflow is expected, not an error.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


def loss_value(loss: str, theta, d: Dataset) -> float:
    """Total loss of theta over the dataset (0 for an empty dataset)."""
    theta = _check_args(loss, theta, d)
    if d.n == 0:
        return 0.0
    u = d.x @ theta
    if loss == SQUARED:
        r = d.y - u
        return float(r @ r)
    _check_labels(d)
    # y*log(1+exp(-u)) + (1-y)*log(1+exp(u)), computed via logaddexp for
    # stability at large |u|
    return float(np.sum(d.y * np.logaddexp(0.0, -u) + (1.0 - d.y) * np.logaddexp(0.0, u)))


def loss_grad(loss: str, theta, d: Dataset | SufficientStats) -> np.ndarray:
    """Gradient of :func:`loss_value` with respect to theta; the squared
    loss's also from a dataset's statistics."""
    theta = _check_args(loss, theta, d)
    if isinstance(d, SufficientStats):
        if loss != SQUARED:
            raise ValueError(f"the {loss} loss needs the rows, not statistics")
        return -2.0 * d.n * (d.m - d.sigma @ theta)
    if d.n == 0:
        return np.zeros_like(theta)
    u = d.x @ theta
    if loss == SQUARED:
        return -2.0 * (d.x.T @ (d.y - u))
    _check_labels(d)
    return d.x.T @ (sigmoid(u) - d.y)
