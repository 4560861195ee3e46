"""Inference-only packed forwards for the relaxed serving mode.

Training and exact-mode sampling run every network forward through the
autograd :class:`~repro.nn.tensor.Tensor` in float64 — that is what pins the
outputs bit-for-bit to the seed implementation.  The relaxed
``sampling_mode="fast"`` serving path has no bit contract, so it can trade
the float64 graph forward for a :class:`PackedForward`: the layer weights are
extracted *once* into a contiguous cache at a reduced precision (float32 by
default, where BLAS runs roughly twice as fast per element) and every
subsequent call is a plain ``matmul`` + in-place activation over pre-allocated
output buffers — no graph nodes, no per-call weight casts, no allocations on
the steady-state path.

The packed cache is a snapshot: it does **not** track later weight updates.
Owners (the surrogates) rebuild it lazily after every ``fit``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

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
from repro.nn.module import Module

__all__ = ["PackedForward", "apply_activation"]


def apply_activation(out: np.ndarray, activation: Optional[str], slope: float) -> None:
    """Apply one of the packed activations to ``out`` in place."""
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "leaky_relu":
        negative = out < 0.0
        out[negative] *= slope
    elif activation == "tanh":
        np.tanh(out, out=out)
    elif activation == "sigmoid":
        np.clip(out, -60.0, 60.0, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.reciprocal(out, out=out)

#: (weight, bias, activation, negative_slope) of one packed affine layer.
_PackedLayer = Tuple[np.ndarray, Optional[np.ndarray], Optional[str], float]

_ACTIVATION_OF = {ReLU: "relu", LeakyReLU: "leaky_relu", Tanh: "tanh", Sigmoid: "sigmoid"}


class PackedForward:
    """Pre-packed reduced-precision forward of an :class:`~repro.nn.layers.MLP`.

    Supports the layer vocabulary the surrogates' serving networks use:
    ``FusedLinear`` (affine + activation in one layer), plain ``Linear``
    followed by an optional activation module, and ``Dropout`` (an inference
    no-op, skipped).  Any other layer raises, because a silent fallback would
    defeat the serving contract.

    Calls return a buffer owned by the cache that is **overwritten by the
    next call of the same batch size** — consume or copy it before calling
    again.  Buffers are kept per batch size (bounded), so steady-state
    serving loops with a fixed chunk size allocate nothing.
    """

    _MAX_BUFFER_SHAPES = 8

    def __init__(self, mlp: Module, dtype=np.float32) -> None:
        self.dtype = np.dtype(dtype)
        sequential = mlp.net if isinstance(mlp, MLP) else mlp
        if not isinstance(sequential, Sequential):
            raise TypeError(f"cannot pack {type(mlp).__name__}; expected an MLP or Sequential")
        self.layers: List[_PackedLayer] = []
        for layer in sequential.layers:
            if isinstance(layer, FusedLinear):
                self.layers.append(self._pack_affine(layer, layer.activation, layer.negative_slope))
            elif isinstance(layer, Linear):
                self.layers.append(self._pack_affine(layer, None, 0.0))
            elif type(layer) in _ACTIVATION_OF:
                if not self.layers or self.layers[-1][2] is not None:
                    raise TypeError("activation layer without a preceding affine layer")
                weight, bias, _act, _slope = self.layers[-1]
                slope = layer.negative_slope if isinstance(layer, LeakyReLU) else 0.0
                self.layers[-1] = (weight, bias, _ACTIVATION_OF[type(layer)], slope)
            elif isinstance(layer, Dropout):
                continue  # inference no-op
            else:
                raise TypeError(f"cannot pack layer {type(layer).__name__} for serving")
        if not self.layers:
            raise ValueError("nothing to pack: the network has no affine layers")
        self.in_features = self.layers[0][0].shape[0]
        self.out_features = self.layers[-1][0].shape[1]
        self._buffers: Dict[int, List[Optional[np.ndarray]]] = {}

    def _pack_affine(self, layer, activation: Optional[str], slope: float) -> _PackedLayer:
        weight = np.ascontiguousarray(layer.weight.data, dtype=self.dtype)
        bias = (
            np.ascontiguousarray(layer.bias.data, dtype=self.dtype)
            if layer.bias is not None
            else None
        )
        return (weight, bias, activation, float(slope))

    def _outputs_for(self, n: int) -> List[Optional[np.ndarray]]:
        # Per-layer buffers are created lazily inside :meth:`_run`, so an
        # owner entering via :meth:`forward_from` never allocates dead
        # buffers for the layers it computed itself.
        outs = self._buffers.get(n)
        if outs is None:
            if len(self._buffers) >= self._MAX_BUFFER_SHAPES:
                self._buffers.clear()
            outs = [None] * len(self.layers)
            self._buffers[n] = outs
        return outs

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Forward ``x`` (cast to the packed dtype); returns a reused buffer."""
        current = np.ascontiguousarray(x, dtype=self.dtype)
        if current.ndim != 2 or current.shape[1] != self.in_features:
            raise ValueError(
                f"expected input of shape (n, {self.in_features}), got {current.shape}"
            )
        return self._run(current, 0)

    def forward_from(self, x: np.ndarray, start: int) -> np.ndarray:
        """Run layers ``start:`` on ``x`` (already in the packed dtype).

        Lets owners special-case an early layer (e.g. the denoiser folds the
        shared timestep-embedding contribution of its first layer into a
        cached per-step bias row) and hand the intermediate back here.
        """
        if not 0 <= start < len(self.layers):
            raise ValueError(f"layer start {start} outside 0..{len(self.layers) - 1}")
        expected = self.layers[start][0].shape[0]
        if x.ndim != 2 or x.shape[1] != expected:
            raise ValueError(f"expected input of shape (n, {expected}), got {x.shape}")
        return self._run(np.ascontiguousarray(x, dtype=self.dtype), start)

    def warm(self, n: int, *, start: int = 0) -> None:
        """Pre-allocate the forward buffers for batch size ``n``.

        Serving owners call this at registration / worker start so the first
        real request of the steady-state chunk size pays no buffer
        allocation (and no first-touch page faults inside the timed path).
        ``start`` skips the leading layers an owner computes itself (see
        :meth:`forward_from`).
        """
        if n < 1:
            return
        outs = self._outputs_for(n)
        for i in range(start, len(self.layers)):
            if outs[i] is None:
                outs[i] = np.empty((n, self.layers[i][0].shape[1]), dtype=self.dtype)

    def _run(self, current: np.ndarray, start: int) -> np.ndarray:
        n = current.shape[0]
        outs = self._outputs_for(n)
        for i in range(start, len(self.layers)):
            weight, bias, activation, slope = self.layers[i]
            out = outs[i]
            if out is None:
                out = outs[i] = np.empty((n, weight.shape[1]), dtype=self.dtype)
            np.matmul(current, weight, out=out)
            if bias is not None:
                out += bias
            apply_activation(out, activation, slope)
            current = out
        return current

    # The output buffers are scratch space: dropping them on pickle keeps
    # saved surrogates small and is safe (they are re-grown on first call).
    def __getstate__(self):
        state = dict(self.__dict__)
        state["_buffers"] = {}
        return state
