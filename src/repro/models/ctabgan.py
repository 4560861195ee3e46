"""CTABGAN+-style conditional tabular GAN.

Implements the ingredients that define the CTGAN/CTABGAN+ family (Zhao et
al., 2024):

* **mode-specific normalisation** — every numerical column is modelled with a
  Gaussian mixture; a value is represented as a scalar offset within its
  sampled mixture component plus a one-hot component indicator;
* **conditional vector with training-by-sampling** — each training step
  conditions the generator on one (column, category) pair drawn with
  log-frequency weighting, which counteracts category imbalance;
* **generator / discriminator MLPs** trained adversarially, with an auxiliary
  cross-entropy term that forces the generator to respect the condition.

Deviation from the reference implementation: the adversarial objective is the
standard non-saturating GAN loss (binary cross-entropy) rather than WGAN-GP,
because the gradient penalty requires second-order autodiff that the numpy
backend does not provide.  The classifier and information-loss auxiliary
terms of CTABGAN+ are likewise folded into the conditional cross-entropy
term.  The model keeps the same encode/condition/decode structure, so its
qualitative behaviour (and its ranking in Table I) matches the paper.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mixture.gmm import GaussianMixture
from repro.models.base import Surrogate
from repro.models.onehot_blocks import OneHotBlocks, SoftmaxCodeSampler
from repro.nn import (
    Adam,
    BlockLayout,
    MLP,
    PackedForward,
    StepArrays,
    Tensor,
    bce_with_logits,
    clip_grad_norm,
    conditional_blocks_loss,
    no_grad,
    tanh_softmax_blocks,
)
from repro.tabular.encoding import OneHotEncoder
from repro.tabular.schema import ColumnKind
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.rng import SeedLike, as_rng, derive_seed, fused_column_draws

logger = get_logger(__name__)


@dataclass
class CTABGANConfig:
    """Hyper-parameters of the CTABGAN+ surrogate."""

    noise_dim: int = 64
    generator_dims: tuple = (128, 128)
    discriminator_dims: tuple = (128, 128)
    gmm_components: int = 8
    epochs: int = 30
    batch_size: int = 256
    learning_rate: float = 2e-4
    discriminator_steps: int = 1
    grad_clip: float = 5.0

    @classmethod
    def fast(cls) -> "CTABGANConfig":
        """A configuration small enough for unit tests."""
        return cls(noise_dim=16, generator_dims=(32,), discriminator_dims=(32,), gmm_components=3, epochs=3, batch_size=128)


class _ModeSpecificEncoder:
    """Mode-specific normalisation of numerical columns + one-hot categoricals."""

    def __init__(self, gmm_components: int, seed: Optional[int]) -> None:
        self.gmm_components = gmm_components
        self.seed = seed
        self.numerical_gmms: Dict[str, GaussianMixture] = {}
        self.categorical_encoders: Dict[str, OneHotEncoder] = {}
        self.layout: List[Tuple[str, str, int, int]] = []  # (name, kind, start, width)
        self.n_features = 0

    def fit(self, table: Table) -> "_ModeSpecificEncoder":
        cursor = 0
        for col in table.schema:
            if col.is_numerical:
                gmm = GaussianMixture(
                    n_components=self.gmm_components,
                    seed=derive_seed(self.seed, "gmm", col.name),
                )
                gmm.fit(table[col.name])
                self.numerical_gmms[col.name] = gmm
                width = 1 + gmm.n_active_components
            else:
                enc = OneHotEncoder()
                enc.fit(table.categorical_column(col.name))
                self.categorical_encoders[col.name] = enc
                width = enc.n_categories
            self.layout.append((col.name, col.kind.value, cursor, width))
            cursor += width
        self.n_features = cursor
        return self

    def _numeric_tables(self):
        """Stacked per-column GMM parameter tables for the numerical blocks.

        Returns ``(blocks, alpha_cols, comp_base, means_pad, stds_pad)`` where
        the padded ``(n_columns, max_components)`` tables let one gather per
        batch replace the per-column mean/std lookups.  Built lazily so
        encoders restored from older fits work unchanged.
        """
        cached = getattr(self, "_numeric_tables_", None)
        if cached is not None:
            return cached
        blocks = [
            (name, start, width)
            for name, kind, start, width in self.layout
            if kind == ColumnKind.NUMERICAL.value
        ]
        alpha_cols = np.array([start for _name, start, _width in blocks], dtype=np.intp)
        comp_base = np.array([start + 1 for _name, start, _width in blocks], dtype=np.intp)
        kmax = max((width - 1 for _name, _start, width in blocks), default=0)
        means_pad = np.zeros((len(blocks), max(kmax, 1)))
        stds_pad = np.ones((len(blocks), max(kmax, 1)))
        for i, (name, _start, _width) in enumerate(blocks):
            params = self.numerical_gmms[name].params_
            means_pad[i, : params.n_components] = params.means
            stds_pad[i, : params.n_components] = params.stds
        self._numeric_tables_ = (blocks, alpha_cols, comp_base, means_pad, stds_pad)
        return self._numeric_tables_

    def transform(self, table: Table, rng: np.random.Generator) -> np.ndarray:
        """Mode-specific encoding with the per-column loop reduced to the RNG
        draws: components are still sampled column by column (keeping the
        draw stream of the historical loop), but the normalisation runs once
        over all continuous columns via stacked mean/std gathers and every
        one-hot block is written by a single scatter — all bit-identical to
        the per-column composition."""
        n = len(table)
        out = np.zeros((n, self.n_features))
        rows = np.arange(n)
        blocks, alpha_cols, comp_base, means_pad, stds_pad = self._numeric_tables()
        if blocks:
            values = np.empty((n, len(blocks)))
            comps = np.empty((n, len(blocks)), dtype=np.int64)
            for i, (name, _start, _width) in enumerate(blocks):
                column = np.asarray(table[name], dtype=np.float64)
                values[:, i] = column
                comps[:, i] = self.numerical_gmms[name].sample_component(column, rng)
            cidx = np.arange(len(blocks))[None, :]
            mu = means_pad[cidx, comps]
            sd = stds_pad[cidx, comps]
            out[:, alpha_cols] = np.clip((values - mu) / (4.0 * sd), -1.0, 1.0)
            out[rows[:, None], comp_base[None, :] + comps] = 1.0
        for name, kind, start, _width in self.layout:
            if kind == ColumnKind.CATEGORICAL.value:
                codes = self.categorical_encoders[name].transform_codes(
                    table.categorical_column(name)
                )
                out[rows, start + codes] = 1.0
        return out

    def inverse_transform(self, matrix: np.ndarray, schema, rng: np.random.Generator) -> Table:
        data: Dict[str, np.ndarray] = {}
        n = matrix.shape[0]
        blocks, alpha_cols, _comp_base, means_pad, stds_pad = self._numeric_tables()
        if blocks:
            comps = OneHotBlocks([(start + 1, start + width) for _n, start, width in blocks]).argmax(matrix)
            alpha = np.clip(matrix[:, alpha_cols], -1.0, 1.0)
            cidx = np.arange(len(blocks))[None, :]
            recovered = alpha * 4.0 * stds_pad[cidx, comps] + means_pad[cidx, comps]
            for i, (name, _start, _width) in enumerate(blocks):
                data[name] = recovered[:, i]
        cat_blocks = [
            (name, start, width)
            for name, kind, start, width in self.layout
            if kind == ColumnKind.CATEGORICAL.value
        ]
        if cat_blocks:
            codes = OneHotBlocks([(start, start + width) for _n, start, width in cat_blocks]).argmax(matrix)
            for i, (name, _start, _width) in enumerate(cat_blocks):
                encoder = self.categorical_encoders[name]
                data[name] = encoder.label_encoder.decode_column(codes[:, i])
        return Table(data, schema)

    def decode_sampled(self, alphas: np.ndarray, codes: np.ndarray, schema) -> Table:
        """Decode drawn samples directly from per-block category codes.

        ``alphas`` are the tanh outputs of the numerical alpha columns (one
        per continuous column, in layout order); ``codes`` holds one drawn
        category per layout entry (mixture component for numerical columns,
        category for categorical ones).  Equivalent to scattering the codes
        as one-hot blocks and calling :meth:`inverse_transform` — the argmax
        of a one-hot block is its code — without materialising the matrix.
        """
        data: Dict[str, np.ndarray] = {}
        blocks, _alpha_cols, _comp_base, means_pad, stds_pad = self._numeric_tables()
        numeric_i = 0
        if blocks:
            comp_cols = [i for i, (_n, kind, _s, _w) in enumerate(self.layout)
                         if kind == ColumnKind.NUMERICAL.value]
            comps = codes[:, comp_cols]
            alpha = np.clip(alphas, -1.0, 1.0)
            cidx = np.arange(len(blocks))[None, :]
            recovered = alpha * 4.0 * stds_pad[cidx, comps] + means_pad[cidx, comps]
        for i, (name, kind, _start, _width) in enumerate(self.layout):
            if kind == ColumnKind.NUMERICAL.value:
                data[name] = recovered[:, numeric_i]
                numeric_i += 1
            else:
                encoder = self.categorical_encoders[name]
                data[name] = encoder.label_encoder.decode_column(codes[:, i])
        return Table(data, schema)

    @property
    def categorical_layout(self) -> List[Tuple[str, int, int]]:
        """(name, start, width) of categorical blocks — used for conditioning."""
        return [
            (name, start, width)
            for name, kind, start, width in self.layout
            if kind == ColumnKind.CATEGORICAL.value
        ]


class _ConditionSampler:
    """Training-by-sampling condition vectors over categorical columns.

    ``sample`` is fully vectorised per conditioned column while drawing the
    exact RNG stream of the historical per-row loop:

    * ``rng.choice(k, size, p=probs)`` consumes one uniform per draw and maps
      it through the probability CDF, so a pre-computed
      ``cdf.searchsorted(rng.random(count), side="right")`` is stream- and
      value-identical;
    * a scalar ``rng.integers(0, high)`` loop consumes the stream exactly
      like one vectorised ``rng.integers(0, highs)`` call over the same
      bounds (numpy applies the bounded-integer rejection per element in
      order);
    * the per-column ``rng.random`` + ``rng.integers`` call pairs are fused
      into three batched generator calls by
      :func:`repro.utils.rng.fused_column_draws`, which replays numpy's raw
      word consumption bit-exactly (and falls back to the literal legacy
      calls whenever it cannot).
    """

    def __init__(self, table: Table, layout: List[Tuple[str, int, int]], encoders: Dict[str, OneHotEncoder]):
        self.layout = layout
        self.total_width = sum(width for _, _, width in layout)
        self.offsets = np.cumsum([0] + [width for _, _, width in layout])[:-1]
        # Log-frequency weighting per column (as a sampling CDF), plus flat
        # per-category row pools so the discriminator sees real rows
        # consistent with the condition.
        self._cdfs: List[np.ndarray] = []
        self._pools: List[np.ndarray] = []
        self._pool_starts: List[np.ndarray] = []
        self._pool_sizes: List[np.ndarray] = []
        self._pool_highs: List[np.ndarray] = []
        #: condition-vector column -> offset of its column block (to map a
        #: flat condition column back to the in-column category index)
        self._cond_col_offset = np.repeat(
            self.offsets, [width for _, _, width in layout]
        ).astype(np.int64) if layout else np.empty(0, dtype=np.int64)
        for (name, _start, width) in layout:
            codes = encoders[name].transform_codes(table.categorical_column(name))
            counts = np.bincount(codes, minlength=width).astype(np.float64)
            logfreq = np.log1p(counts)
            probs = logfreq / logfreq.sum() if logfreq.sum() > 0 else np.full(width, 1.0 / width)
            # Rows grouped by category: a stable argsort keeps the ascending
            # row order np.nonzero would produce per category.
            pool = np.argsort(codes, kind="stable")
            sizes = np.bincount(codes, minlength=width)
            starts = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            self._cdfs.append(cdf)
            self._pools.append(pool)
            self._pool_starts.append(starts)
            self._pool_sizes.append(sizes)
            self._pool_highs.append(np.maximum(sizes, 1))
        # All per-column row pools concatenated, so the matching-row lookup
        # after the RNG loop is one gather over a single flat array.
        self._pool_offsets = np.concatenate(
            [[0], np.cumsum([p.size for p in self._pools])[:-1]]
        ).astype(np.intp) if self._pools else np.empty(0, dtype=np.intp)
        self._all_pools = (
            np.concatenate(self._pools) if self._pools else np.empty(0, dtype=np.int64)
        )
        # Width-padded per-column tables for the relaxed "fast" mode: one
        # gather per batch replaces every per-column lookup.  CDF padding is
        # +inf so padded entries never count as "<= draw".
        max_width = max((width for _, _, width in layout), default=0)
        self._cdf_pad = np.full((len(layout), max(max_width, 1)), np.inf)
        self._sizes_pad = np.zeros((len(layout), max(max_width, 1)), dtype=np.int64)
        self._highs_pad = np.ones((len(layout), max(max_width, 1)), dtype=np.int64)
        self._starts_pad = np.zeros((len(layout), max(max_width, 1)), dtype=np.intp)
        for j, (_name, _start, width) in enumerate(layout):
            self._cdf_pad[j, :width] = self._cdfs[j]
            self._sizes_pad[j, :width] = self._pool_sizes[j]
            self._highs_pad[j, :width] = self._pool_highs[j]
            self._starts_pad[j, :width] = self._pool_starts[j]
        # Fit-time screen for the fused exact-mode draw path: fusing needs
        # every pool bounded-draw-capable (high > 1) and 32-bit.  Pools are
        # fit-time constants, so checking here keeps the per-batch screen
        # out of the sampling hot path entirely.
        self._fused_ok = all(
            int(h.min()) > 1 and int(h.max()) < 2**32 for h in self._pool_highs
        )

    def sample(
        self,
        batch_size: int,
        rng: np.random.Generator,
        mode: str = "exact",
        need_rows: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Return (condition matrix, column index, category index, matching row index).

        ``mode="exact"`` (default) draws the historical per-column RNG stream;
        ``mode="fast"`` is the documented relaxed mode: the same distribution
        from three batched RNG calls (column choice, one uniform per row
        mapped through the padded per-column CDFs, one bounded integer per
        row), so streams — and therefore exact outputs — differ from the
        seed while condition frequencies match (chi-squared-tested in
        ``tests/test_sampling_equivalence.py``).

        ``need_rows=False`` skips the matching-row gather (``row_choice`` is
        returned as ``None``) for callers that only consume the condition
        matrix (generation).  Every RNG draw still happens — the bounded
        integer draws are part of the pinned stream — so outputs are
        byte-identical either way.
        """
        if mode not in ("exact", "fast"):
            raise ValueError(f"unknown condition sampling mode {mode!r}; use 'exact' or 'fast'")
        n_columns = len(self.layout)
        cond = np.zeros((batch_size, self.total_width))
        col_choice = rng.integers(0, n_columns, size=batch_size)
        if mode == "fast":
            uniforms = rng.random(batch_size)
            cats = (self._cdf_pad[col_choice] <= uniforms[:, None]).sum(axis=1)
            draws = rng.integers(0, self._highs_pad[col_choice, cats])
            cond[np.arange(batch_size), self.offsets[col_choice] + cats] = 1.0
            if not need_rows:
                return cond, col_choice, cats.astype(np.int64), None
            sizes = self._sizes_pad[col_choice, cats]
            starts = self._starts_pad[col_choice, cats] + self._pool_offsets[col_choice]
            if self._all_pools.size:
                picks = self._all_pools[np.minimum(starts + draws, self._all_pools.size - 1)]
                row_choice = np.where(sizes > 0, picks, draws)
            else:
                row_choice = draws
            return cond, col_choice, cats.astype(np.int64), row_choice
        # Group the batch rows by conditioned column once (stable sort keeps
        # the ascending row order of the historical per-column masks).  The
        # per-column uniform + bounded-integer draw pairs — which must stay
        # interleaved per column to preserve the seed stream — are fused into
        # one raw block draw plus one stream advance by ``fused_column_draws``
        # (pools screened at fit time; non-PCG64 generators, singleton or
        # 64-bit pools, and a detected bounded-integer rejection all fall
        # back to the literal legacy calls), with all gather/scatter work
        # batched afterwards.
        rows_by_col = np.argsort(col_choice, kind="stable")
        counts = np.bincount(col_choice, minlength=n_columns)
        active_cols = [j for j in range(n_columns) if counts[j]]
        fused = None
        if self._fused_ok:
            plans = [(int(counts[j]), self._cdfs[j], self._pool_highs[j]) for j in active_cols]
            fused = fused_column_draws(rng, plans, prescreened=True)
        if fused is None:
            fused = []
            for j in active_cols:
                cats = self._cdfs[j].searchsorted(rng.random(int(counts[j])), side="right")
                fused.append((cats, rng.integers(0, self._pool_highs[j][cats])))
        cats_parts: List[np.ndarray] = []
        draws_parts: List[np.ndarray] = []
        sizes_parts: List[np.ndarray] = []
        starts_parts: List[np.ndarray] = []
        for j, (cats, column_draws) in zip(active_cols, fused):
            cats_parts.append(self.offsets[j] + cats)
            draws_parts.append(column_draws)
            if need_rows:
                sizes_parts.append(self._pool_sizes[j][cats])
                starts_parts.append(self._pool_starts[j][cats] + self._pool_offsets[j])
        cat_cols = np.concatenate(cats_parts) if cats_parts else np.empty(0, dtype=np.int64)
        cond[rows_by_col, cat_cols] = 1.0
        cat_choice = np.empty(batch_size, dtype=np.int64)
        cat_choice[rows_by_col] = cat_cols - self._cond_col_offset[cat_cols]
        if not need_rows:
            return cond, col_choice, cat_choice, None
        draws = np.concatenate(draws_parts) if draws_parts else np.empty(0, dtype=np.int64)
        sizes = np.concatenate(sizes_parts) if sizes_parts else np.empty(0, dtype=np.int64)
        starts = np.concatenate(starts_parts) if starts_parts else np.empty(0, dtype=np.intp)
        row_choice = np.empty(batch_size, dtype=np.int64)
        if self._all_pools.size:
            picks = self._all_pools[np.minimum(starts + draws, self._all_pools.size - 1)]
            row_choice[rows_by_col] = np.where(sizes > 0, picks, draws)
        else:
            row_choice[rows_by_col] = draws
        return cond, col_choice, cat_choice, row_choice


class CTABGANPlusSurrogate(Surrogate):
    """Conditional tabular GAN in the CTABGAN+ style."""

    name = "CTABGAN+"
    _TRANSIENT_ATTRS = ("_packed_generator", "_block_sampler")

    def __init__(self, config: Optional[CTABGANConfig] = None, *, seed: Optional[int] = 0) -> None:
        super().__init__()
        self.config = config or CTABGANConfig()
        # Numpy integers seed like the same int; a Generator raises TypeError.
        self._seed = None if seed is None else operator.index(seed)
        self._encoder: Optional[_ModeSpecificEncoder] = None
        self._condition: Optional[_ConditionSampler] = None
        self._generator: Optional[MLP] = None
        self._discriminator: Optional[MLP] = None
        self.loss_history_: Optional[List[Dict[str, float]]] = None

    # -- output shaping ------------------------------------------------------------
    def _output_layout(self) -> Tuple[np.ndarray, BlockLayout]:
        """``(tanh columns, softmax block layout)`` covering the generator output."""
        tanh_cols: List[int] = []
        softmax_spans: List[Tuple[int, int]] = []
        for _name, kind, start, width in self._encoder.layout:
            if kind == ColumnKind.NUMERICAL.value:
                tanh_cols.append(start)
                softmax_spans.append((start + 1, start + width))
            else:
                softmax_spans.append((start, start + width))
        return np.asarray(tanh_cols, dtype=np.intp), BlockLayout(softmax_spans)

    def _activate_generator_output(self, raw: Tensor) -> Tensor:
        """Apply per-block activations: tanh for alphas, softmax for one-hot blocks.

        One fused graph node (bit-identical to the slice/tanh/softmax/concat
        composition) instead of four nodes per encoded column.
        """
        tanh_cols, softmax_spans = self._activation_layout
        return tanh_softmax_blocks(raw, tanh_cols, softmax_spans)

    def _condition_loss(self, raw: Tensor, col_choice: np.ndarray, cat_choice: np.ndarray) -> Tensor:
        """Cross entropy forcing the generated conditioned column to match the condition."""
        return conditional_blocks_loss(raw, self._condition_layout, col_choice, cat_choice)

    # -- fitting ----------------------------------------------------------------------
    def fit(self, table: Table) -> "CTABGANPlusSurrogate":
        self._mark_fitted(table)
        cfg = self.config
        rng = as_rng(derive_seed(self._seed, "fit"))

        # Encode once: mode-specific normalisation runs over the full table a
        # single time, and each discriminator step below only gathers rows
        # (``encoded[row_c]``) from the resulting dense matrix.
        self._encoder = _ModeSpecificEncoder(cfg.gmm_components, self._seed).fit(table)
        encoded = self._encoder.transform(table, rng)
        self._activation_layout = self._output_layout()
        # The sampler is derived from the encoder layout and the packed
        # serving forward snapshots the generator weights; a refit must not
        # keep either built against the previous fit.
        self._block_sampler = None
        self._packed_generator = None
        cat_layout = self._encoder.categorical_layout
        self._condition_layout = BlockLayout(
            [(start, start + width) for _name, start, width in cat_layout]
        )
        self._condition = _ConditionSampler(table, cat_layout, self._encoder.categorical_encoders)

        data_dim = self._encoder.n_features
        cond_dim = self._condition.total_width
        self._generator = MLP(
            cfg.noise_dim + cond_dim,
            list(cfg.generator_dims),
            data_dim,
            activation="relu",
            seed=derive_seed(self._seed, "generator"),
        )
        self._discriminator = MLP(
            data_dim + cond_dim,
            list(cfg.discriminator_dims),
            1,
            activation="leaky_relu",
            dropout=0.25,
            seed=derive_seed(self._seed, "discriminator"),
        )

        g_params = self._generator.parameters()
        d_params = self._discriminator.parameters()
        g_optimizer = Adam(g_params, lr=cfg.learning_rate, betas=(0.5, 0.9))
        d_optimizer = Adam(d_params, lr=cfg.learning_rate, betas=(0.5, 0.9))

        n = encoded.shape[0]
        steps_per_epoch = max(1, n // cfg.batch_size)
        history: List[Dict[str, float]] = []
        ones = None
        zeros = None
        # Nothing a step produces is read after it, so each discriminator or
        # generator step reuses the arrays of the one before (StepArrays).
        arrays = StepArrays()
        for epoch in range(cfg.epochs):
            d_loss_value = 0.0
            g_loss_value = 0.0
            for _ in range(steps_per_epoch):
                # -- discriminator update(s) -------------------------------------
                for _ in range(cfg.discriminator_steps):
                    with arrays:
                        cond, col_c, cat_c, row_c = self._condition.sample(cfg.batch_size, rng)
                        real = encoded[row_c]
                        noise = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
                        with no_grad():
                            fake_raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                            fake = self._activate_generator_output(fake_raw).numpy()
                        real_in = Tensor(np.concatenate([real, cond], axis=1))
                        fake_in = Tensor(np.concatenate([fake, cond], axis=1))
                        real_logit = self._discriminator(real_in)
                        fake_logit = self._discriminator(fake_in)
                        if ones is None or ones.shape[0] != cfg.batch_size:
                            ones = np.ones((cfg.batch_size, 1))
                            zeros = np.zeros((cfg.batch_size, 1))
                        d_loss = bce_with_logits(real_logit, ones) + bce_with_logits(fake_logit, zeros)
                        d_optimizer.zero_grad()
                        d_loss.backward()
                        clip_grad_norm(d_params, cfg.grad_clip)
                        d_optimizer.step()
                        d_loss_value += d_loss.item()

                # -- generator update ----------------------------------------------
                with arrays:
                    cond, col_c, cat_c, _rows = self._condition.sample(cfg.batch_size, rng)
                    noise = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
                    fake_raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                    fake = self._activate_generator_output(fake_raw)
                    fake_logit = self._discriminator(Tensor.concat([fake, Tensor(cond)], axis=1))
                    adv_loss = bce_with_logits(fake_logit, np.ones((cfg.batch_size, 1)))
                    cond_loss = self._condition_loss(fake_raw, col_c, cat_c)
                    g_loss = adv_loss + cond_loss
                    g_optimizer.zero_grad()
                    g_loss.backward()
                    clip_grad_norm(g_params, cfg.grad_clip)
                    g_optimizer.step()
                    g_loss_value += g_loss.item()

            history.append(
                {
                    "epoch": epoch + 1,
                    "d_loss": d_loss_value / (steps_per_epoch * cfg.discriminator_steps),
                    "g_loss": g_loss_value / steps_per_epoch,
                }
            )
            logger.info(
                "CTABGAN+ epoch %d/%d d_loss=%.4f g_loss=%.4f",
                epoch + 1, cfg.epochs, history[-1]["d_loss"], history[-1]["g_loss"],
            )
        self.loss_history_ = history
        return self

    # -- sampling -------------------------------------------------------------------------
    #: Serving-mode forward chunk: bounds peak activation memory while keeping
    #: the generator matmuls fused over request-sized batches.
    _FAST_FORWARD_CHUNK = 65_536

    def _ensure_block_sampler(self) -> SoftmaxCodeSampler:
        sampler = getattr(self, "_block_sampler", None)
        if sampler is None:
            spans = []
            for _name, kind, start, width in self._encoder.layout:
                if kind == ColumnKind.NUMERICAL.value:
                    spans.append((start + 1, start + width))
                else:
                    spans.append((start, start + width))
            sampler = self._block_sampler = SoftmaxCodeSampler(spans)
        return sampler

    def _decode_raw(
        self, raw_matrix: np.ndarray, rng: np.random.Generator, *, relaxed: bool = False
    ) -> Table:
        """Decode a stacked raw-logit matrix into a table (shared by both modes).

        ``relaxed=True`` (the fast serving path) draws the block codes
        through the contract-free padded-cube kernel.
        """
        sampler = self._ensure_block_sampler()
        if relaxed:
            codes = sampler.sample_codes_fast(raw_matrix, rng)
        else:
            codes = sampler.sample_codes(raw_matrix, rng)
        tanh_cols, _softmax_layout = self._activation_layout
        alphas = np.tanh(raw_matrix[:, tanh_cols])
        return self._encoder.decode_sampled(alphas, codes, self.schema_)

    def _sample_exact(self, n: int, *, seed: SeedLike = None) -> Table:
        """Generate ``n`` rows, bit-identical to the historical sampling loop.

        The generator still runs per batch — its matmul shapes, and the
        condition/noise draw stream, define the bits — but everything after
        the raw logits collapses: the historical activate → harden →
        argmax-decode chain only ever exposed the drawn categories and the
        tanh'd alpha columns, so the blocks' category codes are drawn
        straight from the stacked raw logits
        (:class:`~repro.models.onehot_blocks.SoftmaxCodeSampler`, bit- and
        stream-identical) and the table is decoded from codes plus
        alphas without materialising the activated or hardened matrices.
        """
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        self._generator.eval()
        outputs: List[np.ndarray] = []
        remaining = n
        with no_grad():
            while remaining > 0:
                batch = min(cfg.batch_size, remaining)
                cond, _, _, _ = self._condition.sample(batch, rng, need_rows=False)
                noise = rng.standard_normal((batch, cfg.noise_dim))
                raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                outputs.append(raw.numpy())
                remaining -= batch
        self._generator.train()
        raw_matrix = (
            outputs[0] if len(outputs) == 1
            else np.concatenate(outputs, axis=0) if outputs
            else np.empty((0, self._encoder.n_features))
        )
        return self._decode_raw(raw_matrix, rng)

    def _sample_fast(self, n: int, *, seed: SeedLike = None) -> Table:
        """Relaxed serving path: fused forwards freed from the training batch.

        The condition vectors come from the batched ``mode="fast"``
        condition sampler, the noise is drawn as float32, and each
        request-sized chunk runs through a single pre-packed float32
        generator forward (:class:`~repro.nn.serving.PackedForward`) instead
        of the per-``batch_size`` float64 graph loop.  The block codes come
        from the relaxed
        :meth:`~repro.models.onehot_blocks.SoftmaxCodeSampler.sample_codes_fast`.
        Distribution-identical to the exact mode (KS / chi-squared tested),
        stream-different.
        """
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        packed = getattr(self, "_packed_generator", None)
        if packed is None:
            packed = self._packed_generator = PackedForward(self._generator, np.float32)
        # The request matrix stays float32 end to end: the block sampler's
        # scratch and the decode follow the logits' dtype.
        raw_matrix = np.empty((n, self._encoder.n_features), dtype=np.float32)
        for r0 in range(0, n, self._FAST_FORWARD_CHUNK):
            batch = min(self._FAST_FORWARD_CHUNK, n - r0)
            cond, _, _, _ = self._condition.sample(batch, rng, mode="fast", need_rows=False)
            # The packed forward runs in float32, so the noise is drawn there.
            noise = rng.standard_normal((batch, cfg.noise_dim), dtype=np.float32)
            # The forward returns a reused buffer; the store into the request
            # matrix is the consuming copy.
            raw_matrix[r0 : r0 + batch] = packed(
                np.concatenate([noise, cond], axis=1, dtype=np.float32)
            )
        return self._decode_raw(raw_matrix, rng, relaxed=True)
