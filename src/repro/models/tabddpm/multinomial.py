"""Multinomial diffusion for one-hot categorical features.

Hoogeboom et al. (2021) define a categorical forward process with uniform
transition kernels: at step ``t`` a category keeps its value with probability
``1 - beta_t`` and is resampled uniformly otherwise.  The closed-form
marginal and posterior are both simple mixtures of the one-hot vector and the
uniform distribution, which keeps every operation a dense numpy expression.

TabDDPM trains the denoiser to predict the distribution of ``x_0`` from
``x_t`` (via a cross-entropy loss, handled by the caller) and samples the
reverse chain through the posterior evaluated at the predicted ``x_0``.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.models.onehot_blocks import OneHotBlocks
from repro.models.tabddpm.schedule import DiffusionSchedule


class MultinomialDiffusion:
    """Uniform-kernel categorical diffusion over ``n_categories`` classes."""

    def __init__(self, n_categories: int, schedule: DiffusionSchedule):
        if n_categories < 2:
            raise ValueError("n_categories must be at least 2")
        self.n_categories = int(n_categories)
        self.schedule = schedule

    @property
    def n_steps(self) -> int:
        return self.schedule.n_steps

    # -- forward process -------------------------------------------------------------
    def q_probs(self, x0_onehot: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Marginal ``q(x_t | x_0)`` as a probability matrix, shape ``(n, K)``."""
        x0 = np.asarray(x0_onehot, dtype=np.float64)
        t = np.asarray(t, dtype=np.int64)
        keep = self.schedule.alphas_bar[t][:, None]
        return keep * x0 + (1.0 - keep) / self.n_categories

    def q_sample(self, x0_onehot: np.ndarray, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one-hot ``x_t`` from the forward marginal."""
        probs = self.q_probs(x0_onehot, t)
        return self._sample_onehot(probs, rng)

    # -- reverse process --------------------------------------------------------------
    def posterior_probs(
        self, x_t_onehot: np.ndarray, x0_probs: np.ndarray, t: np.ndarray
    ) -> np.ndarray:
        """``q(x_{t-1} | x_t, x_0)`` with ``x_0`` given as a probability vector.

        Both factors of the (unnormalised) posterior are mixtures of a one-hot
        vector and the uniform distribution:
        ``q(x_{t-1}|x_t) ∝ alpha_t x_t + (1-alpha_t)/K`` and
        ``q(x_{t-1}|x_0) ∝ alpha_bar_{t-1} x_0 + (1-alpha_bar_{t-1})/K``.
        """
        x_t = np.asarray(x_t_onehot, dtype=np.float64)
        x0 = np.asarray(x0_probs, dtype=np.float64)
        t = np.asarray(t, dtype=np.int64)
        sched = self.schedule
        alpha_t = sched.alphas[t][:, None]
        alpha_bar_prev = sched.alphas_bar_prev[t][:, None]
        factor_xt = alpha_t * x_t + (1.0 - alpha_t) / self.n_categories
        factor_x0 = alpha_bar_prev * x0 + (1.0 - alpha_bar_prev) / self.n_categories
        unnormalised = factor_xt * factor_x0
        return unnormalised / np.maximum(unnormalised.sum(axis=1, keepdims=True), 1e-12)

    def p_sample_step(
        self,
        x_t_onehot: np.ndarray,
        t: int,
        x0_probs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One reverse step: sample ``x_{t-1}`` from the posterior at predicted x0."""
        n = x_t_onehot.shape[0]
        t_vector = np.full(n, t, dtype=np.int64)
        if t == 0:
            probs = np.asarray(x0_probs, dtype=np.float64)
            probs = probs / np.maximum(probs.sum(axis=1, keepdims=True), 1e-12)
        else:
            probs = self.posterior_probs(x_t_onehot, x0_probs, t_vector)
        return self._sample_onehot(probs, rng)

    def sample(
        self,
        n: int,
        x0_model: Callable[[np.ndarray, np.ndarray], np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Full reverse chain from the uniform distribution.

        ``x0_model(x_t_onehot, t_vector)`` must return x0 probability vectors.
        """
        uniform = np.full((n, self.n_categories), 1.0 / self.n_categories)
        x = self._sample_onehot(uniform, rng)
        for t in reversed(range(self.n_steps)):
            t_vector = np.full(n, t, dtype=np.int64)
            x0_probs = x0_model(x, t_vector)
            x = self.p_sample_step(x, t, x0_probs, rng)
        return x

    # -- helpers -------------------------------------------------------------------------
    @staticmethod
    def _sample_onehot(probs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Vectorised categorical sampling returning one-hot rows."""
        cumulative = np.cumsum(probs, axis=1)
        cumulative /= np.maximum(cumulative[:, -1:], 1e-12)
        draws = rng.random((probs.shape[0], 1))
        chosen = (draws < cumulative).argmax(axis=1)
        onehot = np.zeros_like(probs)
        onehot[np.arange(probs.shape[0]), chosen] = 1.0
        return onehot


class MultinomialBlockDiffusion(OneHotBlocks):
    """All categorical blocks of an encoded table, diffused in one shot.

    The per-block :class:`MultinomialDiffusion` draws each one-hot block with
    its own numpy calls, which makes a TabDDPM step loop over categorical
    features in Python.  This class runs every block at once through the
    layout and lane stages of :class:`~repro.models.onehot_blocks.OneHotBlocks`
    and keeps only the diffusion's own math: the uniform prior, the forward
    noising and the reverse-step posterior.

    Bit-for-bit equivalence with the sequential per-block path is preserved:

    * forward noising packs each relaxed cube bucket, plus one bucket for the
      blocks beyond them, into a zero-padded ``(rows, blocks, bucket_width)``
      cube, so one ``cumsum`` + one comparison per bucket samples all of its
      blocks; the padded tail of each lane is exactly zero, so the in-lane
      cumulative sums (and the normalising last column) are unchanged.
      PanDA's 4-, 40-, 8-, 4- and 9-wide blocks take 66 lanes instead of 200;
    * the uniform draws are taken as one ``rng.random((blocks, rows))``
      matrix, which consumes the generator stream in the same order as the
      sequential per-block ``rng.random((rows, 1))`` calls.
    """

    def __init__(self, spans: Sequence[Tuple[int, int]], schedule: DiffusionSchedule):
        """``spans`` are the ``(start, stop)`` column ranges of the one-hot
        blocks inside the encoded matrix, in encoding order."""
        super().__init__(spans)
        if self.widths.size and self.widths.min() < 2:
            raise ValueError("every categorical block needs at least 2 categories")
        self.schedule = schedule
        # Forward-noising cubes, one per relaxed cube bucket, the blocks
        # beyond the cubes being the last: (block ids, pad width, block-major
        # flat gather index, validity mask, widths, starts).  Padded lanes
        # point at the block start and are zeroed through the mask.
        groups = [(gids, pad) for gids, pad, *_ in self._cubes]
        if self._huge:
            groups.append((np.array(self._huge, dtype=np.intp), int(self.widths[self._huge].max())))
        self._noise_buckets = []
        for gids, pad in groups:
            w, a = self.widths[gids], self.starts[gids]
            lane = np.arange(pad, dtype=np.intp)[None, :]
            inside = lane < w[:, None]
            gather = (a[:, None] + np.where(inside, lane, 0)).ravel()
            self._noise_buckets.append(
                (gids, pad, gather, inside.astype(np.float64), w[None, :, None], a[None, :])
            )
        self.columns = (
            np.concatenate([np.arange(a, b, dtype=np.intp) for a, b in self.spans])
            if self.spans else np.empty(0, dtype=np.intp)
        )
        # Zeroing the one-hot columns is a cheap slice write when they tile a
        # contiguous range of the encoded matrix (the common layout).
        if self.columns.size and np.array_equal(
            self.columns, np.arange(self.columns[0], self.columns[-1] + 1)
        ):
            self._col_span: Optional[Tuple[int, int]] = (int(self.columns[0]), int(self.columns[-1]) + 1)
        else:
            self._col_span = None

    def _zero_blocks(self, out: np.ndarray) -> None:
        if self._col_span is not None:
            out[:, self._col_span[0] : self._col_span[1]] = 0.0
        else:
            out[:, self.columns] = 0.0

    def q_sample_into(
        self,
        out: np.ndarray,
        x0: np.ndarray,
        t: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Write forward samples of every block into ``out`` (same layout as ``x0``)."""
        if not self.n_blocks:
            return
        n = x0.shape[0]
        t = np.asarray(t, dtype=np.int64)
        keep = self.schedule.alphas_bar[t][:, None, None]
        draws = rng.random((self.n_blocks, n))
        self._zero_blocks(out)
        rows = np.arange(n)[:, None]
        for gids, pad, gather, valid, widths, starts in self._noise_buckets:
            cube = x0[:, gather].reshape(n, gids.size, pad)
            probs = keep * cube + (1.0 - keep) / widths
            # Padded lanes are zeroed here, so the cumulative sums below match
            # the unpadded per-block ones exactly; x0 needs no separate masking.
            probs *= valid
            cumulative = np.cumsum(probs, axis=2)
            cumulative /= np.maximum(cumulative[:, :, -1:], 1e-12)
            chosen = (draws[gids].T[:, :, None] < cumulative).argmax(axis=2)
            out[rows, starts + chosen] = 1.0

    # -- batched reverse chain ---------------------------------------------------

    def prior_sample_into(self, out: np.ndarray, rng: np.random.Generator) -> Optional[np.ndarray]:
        """Uniform-prior one-hot init of every block, in place on ``out``.

        Bit- and stream-identical to looping the blocks and drawing each from
        ``MultinomialDiffusion._sample_onehot(np.full((n, K), 1 / K), rng)``:
        the per-block uniform CDF row is the same for every data row, so one
        ``searchsorted`` over the shared row replaces the cumulative compare,
        and ``rng.random((blocks, rows))`` consumes the stream in the order of
        the sequential per-block ``rng.random((rows, 1))`` calls.  Returns the
        chosen category matrix for :meth:`p_sample_into`.
        """
        if not self.n_blocks:
            return None
        n = out.shape[0]
        draws = rng.random((self.n_blocks, n))
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        for width in sorted(set(int(v) for v in self.widths)):
            # Same CDF row as the seed per-block path (cumsum of 1/K then a
            # normalising division) shared by every block of this width.
            cdf = np.cumsum(np.full(width, 1.0 / width))
            cdf /= np.maximum(cdf[-1:], 1e-12)
            # (draw < cdf).argmax == count of cdf entries <= draw: the CDF is
            # increasing and its last entry is exactly 1.0 > draw.
            blocks = np.nonzero(self.widths == width)[0]
            idx = np.searchsorted(cdf[:-1], draws[blocks], side="right")
            chosen[:, blocks] = idx.T
        self._zero_blocks(out)
        out[np.arange(n)[:, None], self.starts[None, :] + chosen] = 1.0
        return chosen

    def p_sample_into(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        rng: np.random.Generator,
        prev_chosen: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """One reverse step for every block at once, in place on ``out``.

        Bit- and stream-identical to the sequential per-block chain (softmax
        of the block logits, posterior at the predicted ``x0``, categorical
        draw).  Blocks narrower than 8 run as lane planes (see
        :mod:`repro.models.onehot_blocks`).  ``x_t`` enters the posterior
        only through ``alpha * x_t + beta`` with one-hot ``x_t``, which is
        reproduced exactly by filling ``beta`` and scattering ``alpha + beta``
        at the previously chosen categories (``alpha * 0 + beta`` and
        ``alpha * 1 + beta`` round to precisely those values).  Wider blocks
        keep the verbatim per-block computation; one ``(blocks, rows)``
        uniform matrix feeds every block in block order, preserving the seed
        stream of sequential ``rng.random((rows, 1))`` draws.

        ``prev_chosen`` is the matrix returned by the previous step (or
        :meth:`prior_sample_into`); passing it asserts that the blocks of
        ``out`` are exactly one-hot at those positions (which also lets the
        final rewrite clear just those entries).  When omitted it is
        recovered from ``out`` and the blocks are cleared in full.  Returns
        the new chosen matrix.
        """
        if not self.n_blocks:
            return None
        n = out.shape[0]
        # When the caller supplies ``prev_chosen`` the blocks of ``out`` are
        # known to be exactly one-hot at those positions, so clearing them is
        # two scatters instead of a full rewrite of every block column.
        onehot_prev = prev_chosen is not None
        if prev_chosen is None and t != 0 and self._lane_groups:
            prev_chosen = self.argmax(out)
        draws = rng.random((self.n_blocks, n))
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        # Cache-sized row chunks keep the ~17 passes over the block segment
        # in cache instead of main memory.
        for r0, r1 in self._row_chunks(n, prediction.dtype.itemsize, 1 << 22):
            self._p_sample_chunk(
                out[r0:r1],
                prediction[r0:r1],
                t,
                draws[:, r0:r1],
                None if prev_chosen is None else prev_chosen[r0:r1],
                chosen[r0:r1],
                onehot_prev,
            )
        return chosen

    def _p_sample_chunk(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        draws: np.ndarray,
        prev_chosen: Optional[np.ndarray],
        chosen: np.ndarray,
        onehot_prev: bool = False,
    ) -> None:
        n = out.shape[0]
        sched = self.schedule
        rows = np.arange(n)[:, None]

        def posterior_cdf(s, w, gidx):
            g, tot = s["g"], s["tot"]
            # Blockwise softmax of the x0 logits, then the posterior.
            np.exp(g, out=g)
            self._normalise_lanes(g, tot)
            if t == 0:
                self._normalise_lanes(g, tot)
            else:
                alpha_t = float(sched.alphas[t])
                alpha_bar_prev = float(sched.alphas_bar_prev[t])
                beta = (1.0 - alpha_t) / w
                factor_xt = s["aux"]
                factor_xt.fill(beta)
                flat = prev_chosen[:, gidx] * (n * gidx.size) + s["base"]
                factor_xt.ravel()[flat.ravel()] = alpha_t * 1.0 + beta
                np.multiply(g, alpha_bar_prev, out=g)
                np.add(g, (1.0 - alpha_bar_prev) / w, out=g)
                np.multiply(g, factor_xt, out=g)
                self._normalise_lanes(g, tot)
            # In-lane CDF normalised by its last lane.  A row can top out
            # below its draw only when its mass underflows 1e-12.
            self._cumsum_lanes(g)
            degenerate = not (g[w - 1] >= 1e-12).all()
            np.maximum(g[w - 1], 1e-12, out=s["mx"])
            self._lanewise(np.divide, g, s["mx"])
            return degenerate

        self._draw_lanes(prediction, draws, chosen, posterior_cdf)
        self._p_sample_wide_blocks(out, prediction, t, draws, chosen, self._wide)

        if onehot_prev:
            out[rows, self.starts[None, :] + prev_chosen] = 0.0
        else:
            self._zero_blocks(out)
        out[rows, self.starts[None, :] + chosen] = 1.0

    # -- relaxed serving reverse step ---------------------------------------------

    def p_sample_fast_into(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        rng: np.random.Generator,
        prev_chosen: Optional[np.ndarray] = None,
    ) -> Optional[np.ndarray]:
        """One reverse step for every block, relaxed serving variant.

        Draws each block's category from the *same posterior distribution* as
        :meth:`p_sample_into` but with the stream/bit contract waived, which
        removes most of the per-step passes: blocks narrower than
        :attr:`~repro.models.onehot_blocks.OneHotBlocks.CUBE_LIMIT` evaluate
        as zero-padded cubes whose reductions run as single whole-cube numpy
        calls, probabilities stay unnormalised (the uniform draw is scaled by
        the total mass instead of normalising every lane), and the
        posterior's ``x_t`` factor is applied as a scatter multiply at the
        previously chosen categories only.  Wider blocks keep the per-block
        path.  Used by ``sampling_mode="fast"``; validated distributionally
        (chi-squared) and bit for bit against a per-block replay in
        ``tests/test_serving_modes.py``.
        """
        if not self.n_blocks:
            return None
        n = out.shape[0]
        onehot_prev = prev_chosen is not None
        if prev_chosen is None and t != 0:
            prev_chosen = self.argmax(out)
        # Relaxed mode: float32 uniforms are cheaper to draw and to compare
        # against the float32 CDFs (a different stream from the exact chain,
        # which this mode does not promise to reproduce).
        draws = rng.random((self.n_blocks, n), dtype=np.float32)
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        # The relaxed kernel's whole-cube passes like tighter chunks than the
        # exact kernel's plane loops: a 1 MiB row budget measured ~10% faster
        # than the exact path's 4 MiB at serving sizes.
        for r0, r1 in self._row_chunks(n, prediction.dtype.itemsize, 1 << 20):
            self._p_sample_fast_chunk(
                out[r0:r1],
                prediction[r0:r1],
                t,
                draws[:, r0:r1],
                None if prev_chosen is None else prev_chosen[r0:r1],
                chosen[r0:r1],
            )
        # One-hot state update through reused flat-index buffers (the serving
        # state is contiguous): clears the previous categories, sets the new.
        if out.flags.c_contiguous:
            sc = self._scratch(
                ("scatter", n, out.shape[1]),
                lambda: {
                    "idx": np.empty((n, self.n_blocks), dtype=np.intp),
                    "rowoff": np.arange(n, dtype=np.intp)[:, None] * out.shape[1],
                },
            )
            flat = out.reshape(-1)
            idx, rowoff = sc["idx"], sc["rowoff"]
            if onehot_prev:
                np.add(prev_chosen, self.starts[None, :], out=idx)
                idx += rowoff
                flat[idx] = 0.0
            else:
                self._zero_blocks(out)
            np.add(chosen, self.starts[None, :], out=idx)
            idx += rowoff
            flat[idx] = 1.0
            return chosen
        rows = np.arange(n)[:, None]
        if onehot_prev:
            out[rows, self.starts[None, :] + prev_chosen] = 0.0
        else:
            self._zero_blocks(out)
        out[rows, self.starts[None, :] + chosen] = 1.0
        return chosen

    def _p_sample_fast_chunk(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        draws: np.ndarray,
        prev_chosen: Optional[np.ndarray],
        chosen: np.ndarray,
    ) -> None:
        n = out.shape[0]
        dtype = prediction.dtype
        alpha_t = float(self.schedule.alphas[t])
        alpha_bar_prev = float(self.schedule.alphas_bar_prev[t])

        def posterior_weights(s, cube_spec):
            gids, _pad, _lane_cols, pad_blocks, widths = cube_spec
            cube, mx, tot = s["cube"], s["mx"], s["tot"]
            if t == 0:
                self._exp_cube(cube, mx, pad_blocks)
                return
            # Unnormalised posterior, everything scaled by the softmax total
            # S = Σexp and by beta = (1-alpha)/K:
            # p_j ∝ (abar·beta)·e_j + ((1-abar)/K·abar)·Σ(abar·beta·e).
            # The (abar·beta) factor folds into the exp as a log shift (one
            # plane op instead of a whole-cube multiply), and the chosen
            # lane's extra (alpha+beta)/beta posterior factor is a scatter
            # multiply over (rows, blocks), not a cube pass.
            beta = ((1.0 - alpha_t) / widths).astype(dtype)
            log_ab_beta = np.log(alpha_bar_prev * beta).astype(dtype)
            np.subtract(mx, log_ab_beta[None, :], out=mx)
            self._exp_cube(cube, mx, pad_blocks)
            self._sum_lanes(cube, tot)
            ct_coef = ((1.0 - alpha_bar_prev) / (widths * alpha_bar_prev)).astype(dtype)
            np.multiply(tot, ct_coef[None, :], out=tot)
            np.add(cube, tot[None, :, :], out=cube)
            ratio = ((alpha_t + beta) / beta).astype(dtype)
            idx = np.multiply(prev_chosen[:, gids], n * gids.size, out=s["idx"])
            idx += s["base"]
            flat_cube = cube.reshape(-1)
            flat_cube[idx] = flat_cube[idx] * ratio[None, :]
            self._zero_padding(cube, pad_blocks)

        self._draw_cubes(prediction, draws, chosen, posterior_weights)
        self._p_sample_wide_blocks(out, prediction, t, draws, chosen, self._huge)

    def _p_sample_wide_blocks(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        draws: np.ndarray,
        chosen: np.ndarray,
        blocks: Sequence[int],
    ) -> None:
        """Verbatim per-block reverse step for ``blocks``.

        The exact kernel runs it for every 8+-category block (whose bits it
        defines); the relaxed serving kernel only for the blocks too wide for
        its padded cubes."""
        sched = self.schedule
        for b in blocks:
            start, stop = self.spans[b]
            n_categories = stop - start
            logits = prediction[:, start:stop]
            logits = logits - logits.max(axis=1, keepdims=True)
            x0_probs = np.exp(logits)
            x0_probs /= np.maximum(x0_probs.sum(axis=1, keepdims=True), 1e-12)
            if t == 0:
                probs = x0_probs / np.maximum(x0_probs.sum(axis=1, keepdims=True), 1e-12)
            else:
                alpha_t = float(sched.alphas[t])
                alpha_bar_prev = float(sched.alphas_bar_prev[t])
                factor_xt = alpha_t * out[:, start:stop] + (1.0 - alpha_t) / n_categories
                factor_x0 = alpha_bar_prev * x0_probs + (1.0 - alpha_bar_prev) / n_categories
                probs = factor_xt * factor_x0
                probs = probs / np.maximum(probs.sum(axis=1, keepdims=True), 1e-12)
            cumulative = np.cumsum(probs, axis=1)
            cumulative /= np.maximum(cumulative[:, -1:], 1e-12)
            chosen[:, b] = (draws[b][:, None] < cumulative).argmax(axis=1)
