"""TVAE: variational autoencoder for mixed-type tabular data.

Follows Xu et al. (2019): rows are encoded with the Gaussian quantile
transform (numerical columns) plus one-hot blocks (categorical columns), an
MLP encoder produces the posterior mean/log-variance of a Gaussian latent,
and an MLP decoder reconstructs the row.  The loss is the evidence lower
bound: a Gaussian reconstruction term for numerical features, a categorical
cross-entropy per one-hot block, and the KL divergence between the posterior
and the standard-normal prior.

Sampling draws latents from the prior and decodes; categorical blocks are
sampled from the decoder's softmax so the synthetic data keeps category
diversity instead of collapsing to the arg-max category.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.models.base import Surrogate
from repro.models.onehot_blocks import SoftmaxCodeSampler
from repro.nn import (
    Adam,
    BlockLayout,
    CosineSchedule,
    MLP,
    PackedForward,
    StepArrays,
    Tensor,
    clip_grad_norm,
    gaussian_kl_from_stats,
    gaussian_reparameterize,
    mixed_reconstruction_loss,
    no_grad,
)
from repro.tabular.mixed import MixedEncoder
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng, derive_seed

logger = get_logger(__name__)


@dataclass
class TVAEConfig:
    """Hyper-parameters of the TVAE surrogate.

    ``epochs`` counts passes over the training set; the paper trains for
    30 000 steps at lr 2e-4 with cosine decay — the same optimiser setup is
    used here with a CPU-sized default epoch count.
    """

    latent_dim: int = 32
    hidden_dims: tuple = (128, 128)
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 2e-4
    kl_weight: float = 1.0
    grad_clip: float = 5.0

    @classmethod
    def fast(cls) -> "TVAEConfig":
        """A configuration small enough for unit tests."""
        return cls(latent_dim=8, hidden_dims=(32,), epochs=3, batch_size=128)


class TVAESurrogate(Surrogate):
    """Tabular variational autoencoder."""

    name = "TVAE"
    _TRANSIENT_ATTRS = ("_packed_decoder", "_serving_block_sampler")

    def __init__(
        self,
        config: Optional[TVAEConfig] = None,
        *,
        seed: Optional[int] = 0,
        numerical_transform_factory=None,
    ) -> None:
        super().__init__()
        self.config = config or TVAEConfig()
        # Numpy integers seed like the same int; a Generator raises TypeError.
        self._seed = None if seed is None else operator.index(seed)
        self._numerical_transform_factory = numerical_transform_factory
        self._encoder_data: Optional[MixedEncoder] = None
        self._encoder_net: Optional[MLP] = None
        self._decoder_net: Optional[MLP] = None
        self.loss_history_: Optional[List[float]] = None

    # -- model pieces -------------------------------------------------------------
    def _build(self, n_features: int) -> None:
        cfg = self.config
        net_seed = derive_seed(self._seed, "tvae")
        self._encoder_net = MLP(
            n_features, list(cfg.hidden_dims), 2 * cfg.latent_dim, activation="relu", seed=net_seed
        )
        self._decoder_net = MLP(
            cfg.latent_dim, list(cfg.hidden_dims), n_features, activation="relu", seed=net_seed + 1
        )

    def _reconstruction_loss(self, decoded: Tensor, batch: np.ndarray) -> Tensor:
        """Mixed reconstruction loss: MSE on numerical dims, CE per categorical block.

        Computed through the fused :func:`mixed_reconstruction_loss` op — one
        graph node and one gradient matrix instead of per-block slice nodes —
        with bit-identical values to the per-block composition.
        """
        num_idx = self._numerical_indices
        return mixed_reconstruction_loss(
            decoded, num_idx, batch[:, num_idx], self._categorical_layout, batch
        )

    # -- fitting -------------------------------------------------------------------
    def fit(self, table: Table) -> "TVAESurrogate":
        self._mark_fitted(table)
        cfg = self.config
        # The packed serving decoder snapshots weights and the serving block
        # sampler is derived from the encoder layout; refits rebuild both.
        self._packed_decoder = None
        self._serving_block_sampler = None
        rng = as_rng(derive_seed(self._seed, "fit"))

        self._encoder_data = MixedEncoder(
            numerical_transform_factory=self._numerical_transform_factory
        )
        # Encode once: the whole table becomes one dense float matrix up
        # front, and every training step below only slices shuffled index
        # blocks out of it.
        encoded = self._encoder_data.fit_transform(table)
        X = encoded.values
        self._numerical_indices = encoded.numerical_indices
        self._categorical_layout = BlockLayout(
            (b.start, b.stop) for b in self._encoder_data.blocks_
            if b.kind.value == "categorical"
        )
        self._build(X.shape[1])

        params = self._encoder_net.parameters() + self._decoder_net.parameters()
        optimizer = Adam(params, lr=cfg.learning_rate)
        n_batches_per_epoch = max(1, X.shape[0] // cfg.batch_size)
        schedule = CosineSchedule(optimizer, total_steps=cfg.epochs * n_batches_per_epoch)

        # Nothing a step produces is read after it, so each step reuses the
        # arrays of the one before (StepArrays).
        arrays = StepArrays()
        losses: List[float] = []
        for epoch in range(cfg.epochs):
            permutation = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            for b in range(n_batches_per_epoch):
                idx = permutation[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                if idx.size < 2:
                    continue
                with arrays:
                    batch = X[idx]
                    batch_t = Tensor(batch)

                    # Fused VAE head: one reparameterisation node and one KL node
                    # over the packed [mu | logvar] stats (bit-identical to the
                    # slice/clip/exp composition).
                    stats = self._encoder_net(batch_t)
                    noise = rng.standard_normal((idx.size, cfg.latent_dim))
                    z = gaussian_reparameterize(stats, noise, cfg.latent_dim)
                    decoded = self._decoder_net(z)

                    recon = self._reconstruction_loss(decoded, batch)
                    kl = gaussian_kl_from_stats(stats, cfg.latent_dim)
                    loss = recon + cfg.kl_weight * kl

                    optimizer.zero_grad()
                    loss.backward()
                    clip_grad_norm(params, cfg.grad_clip)
                    optimizer.step()
                    schedule.step()
                    epoch_loss += loss.item()
            losses.append(epoch_loss / n_batches_per_epoch)
            logger.info("TVAE epoch %d/%d loss=%.4f", epoch + 1, cfg.epochs, losses[-1])
        self.loss_history_ = losses
        return self

    # -- sampling --------------------------------------------------------------------
    #: Serving-mode decoder chunk: bounds peak activation memory for large
    #: requests while keeping each forward a single fused matmul stack.
    _FAST_FORWARD_CHUNK = 65_536

    #: Exact-mode decoder chunk.  The latent draws and the decoded logits of
    #: the full request still materialise (the hardening draw stream consumes
    #: them whole), but the float64 graph pass — whose per-layer activations
    #: and graph nodes dominated peak memory for large requests — runs in
    #: bounded row chunks.  Row-chunked affine/activation forwards are
    #: bit-identical to the monolithic pass (each output row is an
    #: independent dot product; asserted at 100k rows in
    #: ``tests/test_serving_modes.py``), so the exact mode's seed-pinned
    #: bytes are unchanged.
    _EXACT_FORWARD_CHUNK = 65_536

    def _harden_categorical_blocks(
        self, decoded: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample one-hot categories from the decoder's softmax per block.

        The historical per-block chain, kept verbatim: the exact mode's draw
        stream and float operations define the bit contract.
        """
        n = decoded.shape[0]
        output = decoded.copy()
        for block in self._encoder_data.blocks_:
            if block.kind.value != "categorical":
                continue
            logits = decoded[:, block.start : block.stop]
            logits = logits - logits.max(axis=1, keepdims=True)
            probs = np.exp(logits)
            probs /= probs.sum(axis=1, keepdims=True)
            # Sample a category per row from the decoder distribution.
            cumulative = np.cumsum(probs, axis=1)
            draws = rng.random((n, 1))
            chosen = (draws < cumulative).argmax(axis=1)
            onehot = np.zeros_like(probs)
            onehot[np.arange(n), chosen] = 1.0
            output[:, block.start : block.stop] = onehot
        return output

    def _sample_exact(self, n: int, *, seed: SeedLike = None) -> Table:
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        self._decoder_net.eval()
        # One latent draw for the whole request (the historical stream),
        # decoded through the graph in bounded row chunks — each chunk's
        # activations and graph nodes are released before the next chunk
        # exists, so peak memory no longer grows with ``n`` times the hidden
        # width.  Bit-identical to the monolithic forward (see
        # ``_EXACT_FORWARD_CHUNK``).
        z = rng.standard_normal((n, cfg.latent_dim))
        n_features = self._encoder_data.blocks_[-1].stop
        decoded = np.empty((n, n_features), dtype=np.float64)
        with no_grad():
            for r0 in range(0, n, self._EXACT_FORWARD_CHUNK):
                r1 = min(n, r0 + self._EXACT_FORWARD_CHUNK)
                decoded[r0:r1] = self._decoder_net(Tensor(z[r0:r1])).numpy()
        self._decoder_net.train()
        return self._encoder_data.inverse_transform(
            self._harden_categorical_blocks(decoded, rng)
        )

    def _sample_fast(self, n: int, *, seed: SeedLike = None) -> Table:
        """Relaxed serving path: chunked float32 decoder forwards + direct decode.

        The exact mode decodes the whole request in one float64 graph
        forward (peak memory grows with ``n``), hardens every categorical
        block into a one-hot matrix and re-``argmax``es it during decoding.
        The serving path draws float32 latents, runs the decoder through a
        :class:`~repro.nn.serving.PackedForward` float32 weight cache in
        bounded chunks, draws the block categories straight from the stacked
        raw logits (the relaxed
        :meth:`~repro.models.onehot_blocks.SoftmaxCodeSampler.sample_codes_fast`,
        the code sampler CTABGAN+ uses — the hardened matrix was never
        observable, only the drawn codes)
        and assembles the table from codes plus the numerical columns, never
        materialising the one-hot matrix.  The numerical columns decode
        through the same quantile inverse as the exact mode.
        Distribution-identical (KS / chi-squared tested), stream-different.
        """
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        packed = getattr(self, "_packed_decoder", None)
        if packed is None:
            packed = self._packed_decoder = PackedForward(self._decoder_net, np.float32)
        decoded = np.empty((n, packed.out_features), dtype=np.float32)
        for r0 in range(0, n, self._FAST_FORWARD_CHUNK):
            batch = min(self._FAST_FORWARD_CHUNK, n - r0)
            # The packed forward runs in float32, so the latents are drawn there.
            z = rng.standard_normal((batch, cfg.latent_dim), dtype=np.float32)
            # The forward returns a reused buffer; the store into the request
            # matrix is the consuming copy.
            decoded[r0 : r0 + batch] = packed(z)

        sampler = getattr(self, "_serving_block_sampler", None)
        if sampler is None:
            cat_spans = [
                (b.start, b.stop)
                for b in self._encoder_data.blocks_
                if b.kind.value == "categorical"
            ]
            sampler = self._serving_block_sampler = SoftmaxCodeSampler(cat_spans)
        codes = sampler.sample_codes_fast(decoded, rng)
        numerical_starts = [
            b.start for b in self._encoder_data.blocks_ if b.kind.value != "categorical"
        ]
        return self._encoder_data.inverse_transform_codes(
            decoded[:, numerical_starts], codes
        )
