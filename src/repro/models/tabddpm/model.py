"""The TabDDPM surrogate: joint Gaussian + multinomial diffusion over a table.

Numerical columns are quantile-transformed to a standard normal and handled
by :class:`~repro.models.tabddpm.gaussian.GaussianDiffusion` (epsilon
prediction); each categorical column becomes a one-hot block, and every
block diffuses jointly through one
:class:`~repro.models.tabddpm.multinomial.MultinomialBlockDiffusion` (the
vectorised, bit-identical form of a per-column
:class:`~repro.models.tabddpm.multinomial.MultinomialDiffusion`).  A single
timestep-conditioned MLP predicts everything at once: the noise for the
numerical block and the x0 logits for every categorical block.  The training
loss is the sum of the numerical MSE and the per-column categorical
cross-entropy, as in the reference implementation's simplified objective.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import Surrogate
from repro.models.tabddpm.denoiser import MLPDenoiser
from repro.models.tabddpm.gaussian import GaussianDiffusion
from repro.models.tabddpm.multinomial import MultinomialBlockDiffusion
from repro.models.tabddpm.schedule import DiffusionSchedule
from repro.nn import (
    Adam,
    BlockLayout,
    CosineSchedule,
    Tensor,
    clip_grad_norm,
    mixed_reconstruction_loss,
    no_grad,
)
from repro.tabular.mixed import MixedEncoder
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng, derive_seed

logger = get_logger(__name__)


@dataclass
class TabDDPMConfig:
    """Hyper-parameters of the TabDDPM surrogate."""

    n_timesteps: int = 100
    hidden_dims: tuple = (256, 256)
    time_embedding_dim: int = 64
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 2e-4
    grad_clip: float = 5.0
    schedule: str = "cosine"

    @classmethod
    def fast(cls) -> "TabDDPMConfig":
        """A configuration small enough for unit tests."""
        return cls(n_timesteps=16, hidden_dims=(48,), time_embedding_dim=16, epochs=4, batch_size=128)


class TabDDPMSurrogate(Surrogate):
    """Denoising diffusion surrogate for mixed-type tables."""

    name = "TabDDPM"
    _TRANSIENT_ATTRS = ("_packed_serving",)

    def __init__(self, config: Optional[TabDDPMConfig] = None, *, seed: Optional[int] = 0) -> None:
        super().__init__()
        self.config = config or TabDDPMConfig()
        # Numpy integers seed like the same int; a Generator raises TypeError.
        self._seed = None if seed is None else operator.index(seed)
        self._encoder: Optional[MixedEncoder] = None
        self._denoiser: Optional[MLPDenoiser] = None
        self._gaussian: Optional[GaussianDiffusion] = None
        self._numerical_indices: Optional[np.ndarray] = None
        self.loss_history_: Optional[List[float]] = None

    # -- setup ---------------------------------------------------------------------
    def _build(self, n_features: int) -> None:
        cfg = self.config
        if cfg.schedule == "cosine":
            schedule = DiffusionSchedule.cosine(cfg.n_timesteps)
        elif cfg.schedule == "linear":
            schedule = DiffusionSchedule.linear(cfg.n_timesteps)
        else:
            raise ValueError(f"unknown schedule {cfg.schedule!r}; use 'cosine' or 'linear'")
        self._gaussian = GaussianDiffusion(schedule)
        # Single-category columns encode as width-1 one-hot blocks that are
        # identically 1.0: there is nothing to diffuse (and the uniform-kernel
        # diffusion requires at least 2 categories), so they are carried
        # through training/sampling as constants instead.
        categorical = [b for b in self._encoder.blocks_ if b.kind.value == "categorical"]
        self._constant_onehot_indices = np.asarray(
            [block.start for block in categorical if block.width == 1], dtype=np.intp
        )
        # Every categorical block of width 2 or more diffuses jointly, in one
        # vectorised shot per forward or reverse step.
        spans = [(block.start, block.stop) for block in categorical if block.width >= 2]
        self._categorical_layout = BlockLayout(spans)
        self._block_diffusion = MultinomialBlockDiffusion(spans, schedule)
        self._denoiser = MLPDenoiser(
            n_features,
            hidden_dims=list(cfg.hidden_dims),
            time_embedding_dim=cfg.time_embedding_dim,
            seed=derive_seed(self._seed, "denoiser"),
        )

    # -- training -------------------------------------------------------------------
    def _q_sample(
        self, x0: np.ndarray, t: np.ndarray, rng: np.random.Generator
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Forward-noise encoded rows to timesteps ``t``: ``(noisy, noise)``.

        The one noising step of training and of anomaly scoring: one
        Gaussian draw for the numerical block (``noise``, ``None`` without
        numerical columns), one vectorised shot for every categorical block,
        and the width-1 constants carried through, so no column of
        ``noisy`` is left uninitialised.
        """
        num_idx = self._numerical_indices
        noisy = np.empty_like(x0)
        noise = rng.standard_normal((x0.shape[0], num_idx.size)) if num_idx.size else None
        if num_idx.size:
            noisy[:, num_idx] = self._gaussian.q_sample(x0[:, num_idx], t, noise)
        self._block_diffusion.q_sample_into(noisy, x0, t, rng)
        if self._constant_onehot_indices.size:
            noisy[:, self._constant_onehot_indices] = x0[:, self._constant_onehot_indices]
        return noisy, noise

    def fit(self, table: Table) -> "TabDDPMSurrogate":
        self._mark_fitted(table)
        cfg = self.config
        # The packed serving cache snapshots the denoiser weights; a refit
        # must not serve through stale ones.
        self._packed_serving = None
        rng = as_rng(derive_seed(self._seed, "fit"))

        # Encode once; training steps only slice shuffled index blocks.
        self._encoder = MixedEncoder()
        encoded = self._encoder.fit_transform(table)
        X = encoded.values
        self._numerical_indices = encoded.numerical_indices
        self._build(X.shape[1])

        params = self._denoiser.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)
        steps_per_epoch = max(1, X.shape[0] // cfg.batch_size)
        lr_schedule = CosineSchedule(optimizer, total_steps=cfg.epochs * steps_per_epoch)

        num_idx = self._numerical_indices
        losses: List[float] = []
        for epoch in range(cfg.epochs):
            permutation = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            for b in range(steps_per_epoch):
                idx = permutation[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                if idx.size < 2:
                    continue
                batch = X[idx]
                t = rng.integers(0, cfg.n_timesteps, size=idx.size)
                noisy, noise = self._q_sample(batch, t, rng)

                prediction = self._denoiser(Tensor(noisy), t)
                loss = mixed_reconstruction_loss(
                    prediction, num_idx, noise, self._categorical_layout, batch
                )

                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(params, cfg.grad_clip)
                optimizer.step()
                lr_schedule.step()
                epoch_loss += loss.item()
            losses.append(epoch_loss / steps_per_epoch)
            logger.info("TabDDPM epoch %d/%d loss=%.4f", epoch + 1, cfg.epochs, losses[-1])
        self.loss_history_ = losses
        return self

    # -- sampling --------------------------------------------------------------------
    def _denoise_batch(self, state: np.ndarray, t_vector: np.ndarray) -> np.ndarray:
        with no_grad():
            return self._denoiser(Tensor(state), t_vector).numpy()

    def _init_constant_blocks(self, state: np.ndarray) -> None:
        const_idx = getattr(self, "_constant_onehot_indices", None)
        if const_idx is not None and const_idx.size:
            state[:, const_idx] = 1.0

    def _sample_exact(self, n: int, *, seed: SeedLike = None) -> Table:
        """Ancestral sampling with every categorical block denoised in one shot.

        Each reverse step runs one batched cube pass
        (:meth:`MultinomialBlockDiffusion.p_sample_into`) instead of a
        per-block Python loop; the draw stream and every floating-point value
        are bit-identical to the sequential per-block chain
        (``tests/test_train_equivalence.py`` asserts the samples).
        """
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        self._denoiser.eval()

        num_idx = self._numerical_indices
        # The state lives inside the denoiser's inference buffer, so each
        # denoising call reads it in place instead of staging a copy.
        state = self._denoiser.serving_state(n)
        if num_idx.size:
            state[:, num_idx] = rng.standard_normal((n, num_idx.size))
        chosen = self._block_diffusion.prior_sample_into(state, rng)
        self._init_constant_blocks(state)

        for t in reversed(range(cfg.n_timesteps)):
            t_vector = np.full(n, t, dtype=np.int64)
            prediction = self._denoise_batch(state, t_vector)
            if num_idx.size:
                eps = prediction[:, num_idx]
                state[:, num_idx] = self._gaussian.p_sample_step(state[:, num_idx], t, eps, rng)
            chosen = self._block_diffusion.p_sample_into(
                state, prediction, t, rng, prev_chosen=chosen
            )

        self._denoiser.train()
        return self._encoder.inverse_transform(state)

    def _sample_fast(self, n: int, *, seed: SeedLike = None) -> Table:
        """Relaxed serving chain: the float32 pre-packed denoiser forward.

        Same fitted model and the same reverse-diffusion structure as the
        exact chain, but the denoiser matmuls run in float32 through a
        :class:`~repro.models.tabddpm.denoiser.PackedDenoiser` weight cache,
        the whole sampler state stays float32, and each categorical reverse
        step uses the relaxed padded-cube kernel
        (:meth:`MultinomialBlockDiffusion.p_sample_fast_into` — same
        posterior, unnormalised-CDF draws, whole-cube reductions) — so
        outputs match the exact mode in distribution (KS / chi-squared
        tested in ``tests/test_serving_modes.py``) but not bit for bit.
        """
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)

        packed = getattr(self, "_packed_serving", None)
        if packed is None:
            packed = self._packed_serving = self._denoiser.packed(np.float32)
        num_idx = self._numerical_indices
        state = packed.serving_state(n)
        if num_idx.size:
            state[:, num_idx] = rng.standard_normal((n, num_idx.size))
        chosen = self._block_diffusion.prior_sample_into(state, rng)
        self._init_constant_blocks(state)

        for t in reversed(range(cfg.n_timesteps)):
            prediction = packed(state, t)
            if num_idx.size:
                eps = prediction[:, num_idx]
                state[:, num_idx] = self._gaussian.p_sample_step(state[:, num_idx], t, eps, rng)
            chosen = self._block_diffusion.p_sample_fast_into(
                state, prediction, t, rng, prev_chosen=chosen
            )

        return self._encoder.inverse_transform(state)
