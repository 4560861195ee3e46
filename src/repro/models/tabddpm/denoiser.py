"""Timestep-conditioned MLP denoiser.

TabDDPM uses a plain MLP whose input is the concatenation of the noisy
feature vector and a sinusoidal embedding of the diffusion timestep.  The
output is split by the caller into the epsilon prediction for the numerical
block and the per-column x0 logits for the categorical blocks.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn import MLP, Module, PackedForward, Tensor
from repro.nn.serving import apply_activation
from repro.nn.tensor import is_grad_enabled
from repro.utils.rng import SeedLike


def timestep_embedding(t: np.ndarray, dim: int, max_period: float = 10_000.0) -> np.ndarray:
    """Sinusoidal embedding of integer timesteps, shape ``(len(t), dim)``.

    The same construction as transformer positional encodings; gives the MLP
    a smooth, high-resolution representation of where it is along the chain.
    """
    if dim < 2:
        raise ValueError("embedding dimension must be at least 2")
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(max_period) * np.arange(half) / max(half - 1, 1))
    args = t[:, None] * freqs[None, :]
    embedding = np.concatenate([np.sin(args), np.cos(args)], axis=1)
    if embedding.shape[1] < dim:
        embedding = np.concatenate([embedding, np.zeros((t.shape[0], dim - embedding.shape[1]))], axis=1)
    return embedding


class MLPDenoiser(Module):
    """MLP denoiser taking ``[x_t, timestep_embedding]`` and emitting one output
    value per encoded feature (epsilon for numerical dims, logits for one-hot
    categorical dims)."""

    def __init__(
        self,
        n_features: int,
        hidden_dims: Sequence[int] = (256, 256),
        time_embedding_dim: int = 64,
        *,
        fused: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if n_features < 1:
            raise ValueError("n_features must be at least 1")
        self.n_features = int(n_features)
        self.time_embedding_dim = int(time_embedding_dim)
        self.net = MLP(
            n_features + time_embedding_dim,
            list(hidden_dims),
            n_features,
            activation="relu",
            fused=fused,
            seed=seed,
        )
        self._embedding_table: "np.ndarray | None" = None

    def embedding_table(self, t: np.ndarray) -> np.ndarray:
        """The embedding table, covering every timestep in ``t``.

        Row ``k`` is ``timestep_embedding([k])``: the sines and cosines are
        elementwise, so a row has the same bits wherever it was computed, and
        a lookup by ``t`` replaces recomputing them every call.  The table
        grows to the largest timestep seen (``n_timesteps`` rows in TabDDPM).
        """
        if t.dtype.kind not in "iu" or (t.size and t.min() < 0):
            raise ValueError("timesteps must be non-negative integers")
        table = getattr(self, "_embedding_table", None)
        top = int(t.max()) + 1 if t.size else 1
        if table is None or table.shape[0] < top:
            table = timestep_embedding(np.arange(top), self.time_embedding_dim)
            self._embedding_table = table
        return table

    def _ensure_inference_buffer(self, n: int) -> np.ndarray:
        buffer = getattr(self, "_inference_buffer", None)
        if buffer is None or buffer.shape[0] != n:
            buffer = np.empty((n, self.n_features + self.time_embedding_dim))
            self._inference_buffer = buffer
        return buffer

    def serving_state(self, n: int) -> np.ndarray:
        """A zeroed ``(n, n_features)`` state view inside the inference buffer.

        Samplers that write the evolving state directly into this view save
        one full copy per denoiser call: :meth:`forward` detects the aliasing
        and skips the staging copy (the input values are identical either
        way).
        """
        view = self._ensure_inference_buffer(n)[:, : self.n_features]
        view[:] = 0.0
        return view

    def __getstate__(self):
        # The inference buffer and the embedding table are derived scratch;
        # they are re-created on the next forward (the getattr guards).
        state = dict(self.__dict__)
        state.pop("_inference_buffer", None)
        state["_embedding_table"] = None
        return state

    def packed(self, dtype=np.float32) -> "PackedDenoiser":
        """A fresh reduced-precision serving forward of this denoiser.

        Snapshot semantics: the returned cache packs the *current* weights
        once and does not follow later training steps — owners rebuild it
        after ``fit`` (see :class:`PackedDenoiser`).
        """
        return PackedDenoiser(self, dtype=dtype)

    def forward(self, x_t: Tensor, t: np.ndarray) -> Tensor:
        t_arr = np.asarray(t)
        table = self.embedding_table(t_arr)
        if (
            not is_grad_enabled()
            and t_arr.ndim == 1
            and t_arr.size > 1
            and (t_arr == t_arr[0]).all()
        ):
            # Ancestral sampling calls the denoiser with one shared timestep:
            # its embedding row is broadcast into a reused input buffer.
            n = x_t.data.shape[0]
            buffer = self._ensure_inference_buffer(n)
            if x_t.data.base is not buffer:
                buffer[:, : self.n_features] = x_t.data
            buffer[:, self.n_features :] = table[t_arr[0]]
            return self.net(Tensor(buffer))
        inputs = Tensor.concat([x_t, Tensor(table[t_arr])], axis=1)
        return self.net(inputs)


class PackedDenoiser:
    """Reduced-precision serving forward of an :class:`MLPDenoiser`.

    The denoiser's matmuls dominate TabDDPM sampling at serving batch sizes,
    so the relaxed ``sampling_mode="fast"`` chain runs them through a
    :class:`~repro.nn.serving.PackedForward` weight cache (float32 by
    default) instead of the float64 autograd graph.

    Ancestral sampling shares one timestep per step, so the sinusoidal
    embedding is the *same row* for every sample — its contribution to the
    first affine layer (``emb_row @ W_emb + bias``) is a constant vector per
    ``t``, cached here.  Each call therefore multiplies only the state block
    of the first layer's weights (skipping the embedding block's matmul
    entirely) and adds the cached row.  The sampler state lives in a
    contiguous buffer handed out by :meth:`serving_state`; :meth:`__call__`
    returns the packed forward's reused output buffer — consume it before
    the next step.
    """

    def __init__(self, denoiser: MLPDenoiser, dtype=np.float32) -> None:
        self.dtype = np.dtype(dtype)
        self.n_features = denoiser.n_features
        self.time_embedding_dim = denoiser.time_embedding_dim
        self.net = PackedForward(denoiser.net, dtype=dtype)
        first_weight, first_bias, self._first_act, self._first_slope = self.net.layers[0]
        self._w_state = np.ascontiguousarray(first_weight[: self.n_features])
        self._w_emb = np.ascontiguousarray(first_weight[self.n_features :])
        self._first_bias = first_bias
        self._state_buffer: "np.ndarray | None" = None
        self._first_out: "np.ndarray | None" = None
        self._bias_rows: dict = {}

    def serving_state(self, n: int) -> np.ndarray:
        """A zeroed, contiguous ``(n, n_features)`` state buffer to sample in."""
        buffer = self._state_buffer
        if buffer is None or buffer.shape[0] != n:
            buffer = np.zeros((n, self.n_features), dtype=self.dtype)
            self._state_buffer = buffer
        else:
            buffer[:] = 0.0
        return buffer

    def _bias_row(self, t: int) -> np.ndarray:
        row = self._bias_rows.get(t)
        if row is None:
            if len(self._bias_rows) >= 4096:
                self._bias_rows.clear()
            emb = timestep_embedding(np.asarray([t]), self.time_embedding_dim)
            row = emb.astype(self.dtype) @ self._w_emb
            if self._first_bias is not None:
                row = row + self._first_bias
            self._bias_rows[t] = row
        return row

    def warm(self, n: int) -> None:
        """Pre-allocate the serving-state and forward buffers for ``n`` rows.

        The layer-0 buffer stays unallocated: :meth:`__call__` computes the
        first layer itself (into ``_first_out``) and enters the packed net at
        layer 1.
        """
        if n < 1:
            return
        if self._state_buffer is None or self._state_buffer.shape[0] != n:
            self._state_buffer = np.zeros((n, self.n_features), dtype=self.dtype)
        if self._first_out is None or self._first_out.shape[0] != n:
            self._first_out = np.empty((n, self._w_state.shape[1]), dtype=self.dtype)
        self.net.warm(n, start=1)

    def __call__(self, state: np.ndarray, t: int) -> np.ndarray:
        """Denoise ``state`` at shared timestep ``t``; returns a reused buffer."""
        x = np.ascontiguousarray(state, dtype=self.dtype)
        out = self._first_out
        if out is None or out.shape[0] != x.shape[0]:
            out = self._first_out = np.empty(
                (x.shape[0], self._w_state.shape[1]), dtype=self.dtype
            )
        np.matmul(x, self._w_state, out=out)
        out += self._bias_row(t)
        apply_activation(out, self._first_act, self._first_slope)
        if len(self.net.layers) == 1:
            return out
        return self.net.forward_from(out, 1)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_state_buffer"] = None
        state["_first_out"] = None
        state["_bias_rows"] = {}
        return state
