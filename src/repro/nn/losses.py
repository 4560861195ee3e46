"""Loss functions for mixed-type tabular generative models.

All losses return a scalar :class:`~repro.nn.tensor.Tensor` so they can be
summed/weighted and backpropagated directly.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn.tensor import Tensor

ArrayOrTensor = Union[np.ndarray, Tensor]


def _as_const(x: ArrayOrTensor) -> Tensor:
    """Treat numpy inputs as constants (targets never need gradients)."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))


def mse_loss(pred: Tensor, target: ArrayOrTensor, *, reduction: str = "mean") -> Tensor:
    """Mean squared error."""
    diff = pred - _as_const(target)
    sq = diff * diff
    if reduction == "mean":
        return sq.mean()
    if reduction == "sum":
        return sq.sum()
    raise ValueError("reduction must be 'mean' or 'sum'")


def bce_with_logits(logits: Tensor, target: ArrayOrTensor, *, reduction: str = "mean") -> Tensor:
    """Binary cross entropy on logits (numerically stable log-sigmoid form)."""
    t = _as_const(target)
    # BCE(x, t) = softplus(x) - x*t; logits are clipped so exp() stays finite
    # in float64 while the gradient remains exact inside the clipped range.
    x = logits.clip(-30.0, 30.0)
    loss = (x.exp() + 1.0).log() - x * t
    if reduction == "mean":
        return loss.mean()
    if reduction == "sum":
        return loss.sum()
    raise ValueError("reduction must be 'mean' or 'sum'")


def cross_entropy_logits(
    logits: Tensor,
    target: ArrayOrTensor,
    *,
    reduction: str = "mean",
) -> Tensor:
    """Categorical cross entropy from raw logits.

    ``target`` may be a one-hot / probability matrix of the same shape as
    ``logits`` or an integer class-index vector.
    """
    target_arr = target.data if isinstance(target, Tensor) else np.asarray(target)
    if target_arr.ndim == 1:
        onehot = np.zeros(logits.shape, dtype=np.float64)
        onehot[np.arange(target_arr.shape[0]), target_arr.astype(np.int64)] = 1.0
        target_arr = onehot
    log_probs = logits.log_softmax(axis=-1)
    nll = -(log_probs * Tensor(target_arr)).sum(axis=-1)
    if reduction == "mean":
        return nll.mean()
    if reduction == "sum":
        return nll.sum()
    raise ValueError("reduction must be 'mean' or 'sum'")


def gaussian_kl(mu: Tensor, logvar: Tensor, *, reduction: str = "mean") -> Tensor:
    """KL divergence between ``N(mu, exp(logvar))`` and the standard normal.

    This is the regulariser in TVAE's evidence lower bound.
    """
    kl = 0.5 * ((mu * mu) + logvar.exp() - logvar - 1.0)
    per_row = kl.sum(axis=-1)
    if reduction == "mean":
        return per_row.mean()
    if reduction == "sum":
        return per_row.sum()
    raise ValueError("reduction must be 'mean' or 'sum'")
