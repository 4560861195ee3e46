"""Minimal neural-network framework on numpy.

The paper's neural surrogates (TVAE, CTABGAN+, TabDDPM) are implemented in
PyTorch by the authors.  This sub-package provides the pieces those models
actually need — a reverse-mode autodiff :class:`~repro.nn.tensor.Tensor`,
dense layers, the usual activations, dropout, mixed reconstruction losses,
and Adam/SGD with a cosine learning-rate schedule — as a self-contained,
CPU-only, vectorised numpy implementation.

It is deliberately small: only the operations required by the surrogate
models are implemented, each with an analytically derived backward pass that
is validated against finite differences in the test suite.
"""

from repro.nn.tensor import StepArrays, Tensor, no_grad
from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Dropout,
    FusedLinear,
    LeakyReLU,
    Linear,
    MLP,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.nn.fused import (
    BlockLayout,
    conditional_blocks_loss,
    gaussian_kl_from_stats,
    gaussian_reparameterize,
    mixed_reconstruction_loss,
    tanh_softmax_blocks,
)
from repro.nn.losses import (
    bce_with_logits,
    cross_entropy_logits,
    gaussian_kl,
    mse_loss,
)
from repro.nn.optim import SGD, Adam, CosineSchedule, clip_grad_norm
from repro.nn.serving import PackedForward
from repro.nn import init

__all__ = [
    "Tensor",
    "no_grad",
    "StepArrays",
    "Module",
    "Parameter",
    "Linear",
    "FusedLinear",
    "Sequential",
    "MLP",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "mse_loss",
    "bce_with_logits",
    "cross_entropy_logits",
    "gaussian_kl",
    "SGD",
    "Adam",
    "CosineSchedule",
    "clip_grad_norm",
    "BlockLayout",
    "gaussian_reparameterize",
    "gaussian_kl_from_stats",
    "mixed_reconstruction_loss",
    "tanh_softmax_blocks",
    "conditional_blocks_loss",
    "PackedForward",
    "init",
]
