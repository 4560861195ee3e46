"""Neural layers: Linear, FusedLinear, activations, Dropout, Sequential, MLP.

Only the layers the tabular surrogates use are provided.  Every layer stores
its parameters as :class:`~repro.nn.module.Parameter` tensors and composes
through :class:`Sequential`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, is_grad_enabled, step_array
from repro.utils.rng import SeedLike, as_rng


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int, *, bias: bool = True, seed: SeedLike = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = as_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform(in_features, out_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class FusedLinear(Module):
    """``y = act(x W + b)`` as a single autograd node.

    The unfused path builds three graph nodes (matmul, bias add, activation)
    per layer, each allocating fresh gradient arrays on the way back.  This
    layer runs the identical float operations in the identical order — so the
    results (forward values *and* accumulated gradients) are bit-for-bit equal
    to ``Linear`` + activation — but records one node and back-propagates into
    pre-allocated weight/bias gradient buffers that are reused across steps.
    """

    _ACTIVATIONS = (None, "relu", "leaky_relu", "tanh", "sigmoid")

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: Optional[str] = None,
        *,
        negative_slope: float = 0.2,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        if activation not in self._ACTIVATIONS:
            raise ValueError(
                f"unknown activation {activation!r}; options: {self._ACTIVATIONS}"
            )
        rng = as_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.negative_slope = float(negative_slope)
        self.weight = Parameter(init.kaiming_uniform(in_features, out_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        # Gradient buffers, allocated lazily and reused every backward pass.
        self._grad_w: Optional[np.ndarray] = None
        self._grad_b: Optional[np.ndarray] = None

    def forward(self, x: Tensor) -> Tensor:
        weight, bias = self.weight, self.bias
        z = np.matmul(x.data, weight.data, out=step_array(x.data.shape[:-1] + (self.out_features,)))
        if bias is not None:
            z += bias.data  # z is this node's own array; in-place add is safe
        # Forward activation; keep exactly what the backward pass needs.
        act = self.activation
        if act == "relu":
            saved = np.greater(z, 0, out=step_array(z.shape, bool))
            data = np.multiply(z, saved, out=z)
        elif act == "leaky_relu":
            saved = np.where(z > 0, 1.0, self.negative_slope)
            data = np.multiply(z, saved, out=z)
        elif act == "tanh":
            data = np.tanh(z)
            saved = data
        elif act == "sigmoid":
            data = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))
            saved = data
        else:
            saved = None
            data = z

        requires = is_grad_enabled() and (
            x.requires_grad or weight.requires_grad
            or (bias is not None and bias.requires_grad)
        )
        out = Tensor(data, requires_grad=requires)
        if not requires:
            return out
        out._prev = tuple(
            p for p in (x, weight, bias) if p is not None and p.requires_grad
        )

        def _backward() -> None:
            g = out.grad
            if act == "relu" or act == "leaky_relu":
                gz = np.multiply(g, saved, out=step_array(g.shape))
            elif act == "tanh":
                gz = g * (1.0 - saved ** 2)
            elif act == "sigmoid":
                gz = g * saved * (1.0 - saved)
            else:
                gz = g
            if bias is not None and bias.requires_grad:
                if bias.grad is None:
                    buf = bias._grad_buffer
                    if buf is None:
                        if self._grad_b is None:
                            self._grad_b = np.empty_like(bias.data)
                        buf = self._grad_b
                    np.sum(gz, axis=0, out=buf)
                    bias.grad = buf
                else:
                    bias.grad += gz.sum(axis=0)
            if weight.requires_grad:
                if weight.grad is None:
                    buf = weight._grad_buffer
                    if buf is None:
                        if self._grad_w is None:
                            self._grad_w = np.empty_like(weight.data)
                        buf = self._grad_w
                    np.matmul(x.data.T, gz, out=buf)
                    weight.grad = buf
                else:
                    weight.grad += x.data.T @ gz
            if x.requires_grad:
                if x.grad is None:
                    # This node's own array: no copy needed.
                    x.grad = np.matmul(gz, weight.data.T, out=step_array(x.data.shape))
                else:
                    x.grad += gz @ weight.data.T
        out._backward = _backward
        return out


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, *, seed: SeedLike = None):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout probability must be in [0, 1)")
        self.p = p
        self._rng = as_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep).astype(np.float64) / keep
        return x * Tensor(mask)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = list(layers)

    def append(self, layer: Module) -> "Sequential":
        self.layers.append(layer)
        return self

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]


class MLP(Module):
    """Multi-layer perceptron with a configurable activation and dropout.

    This is the backbone used by TVAE's encoder/decoder, the CTABGAN+
    generator/discriminator, and TabDDPM's denoiser.
    """

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        out_features: int,
        *,
        activation: str = "relu",
        dropout: float = 0.0,
        fused: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = as_rng(seed)
        acts = {
            "relu": ReLU,
            "leaky_relu": LeakyReLU,
            "tanh": Tanh,
            "sigmoid": Sigmoid,
        }
        if activation not in acts:
            raise ValueError(f"unknown activation {activation!r}; options: {sorted(acts)}")
        layers: List[Module] = []
        prev = in_features
        # The fused path collapses each Linear+activation pair into one graph
        # node (see :class:`FusedLinear`); it is bit-identical to the unfused
        # composition, including the weight-initialisation RNG draws.
        for width in hidden:
            if fused:
                layers.append(FusedLinear(prev, width, activation, seed=rng))
            else:
                layers.append(Linear(prev, width, seed=rng))
                layers.append(acts[activation]())
            if dropout > 0:
                layers.append(Dropout(dropout, seed=rng))
            prev = width
        if fused:
            layers.append(FusedLinear(prev, out_features, None, seed=rng))
        else:
            layers.append(Linear(prev, out_features, seed=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)
