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

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.models.tabddpm.schedule import DiffusionSchedule
from repro.models.width_buckets import (
    bounded_scratch,
    build_width_bucket_tables,
    even_row_chunks,
)


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


class MultinomialBlockDiffusion:
    """All categorical blocks of an encoded table, diffused in one shot.

    The per-block :class:`MultinomialDiffusion` draws the forward sample of
    each one-hot block with its own numpy calls, which makes a TabDDPM
    training step loop over categorical features in Python.  This class
    sorts the blocks into width buckets (``[2, 8)``, ``[8, 32)`` and
    ``>= 32`` categories) and packs each bucket into a zero-padded
    ``(rows, blocks, bucket_width)`` cube, so one ``cumsum`` + one comparison
    per bucket samples all of its blocks at once.  Each cube pads to its own
    bucket's widest block, not the table's: PanDA's 4-, 40-, 8-, 4- and
    9-wide blocks take 66 lanes instead of 200.

    Bit-for-bit equivalence with the sequential per-block path is preserved:

    * the padded tail of each lane is exactly zero, so the in-lane cumulative
      sums (and the normalising last column) are unchanged;
    * the uniform draws are taken as one ``rng.random((blocks, rows))``
      matrix, which consumes the generator stream in the same order as the
      sequential per-block ``rng.random((rows, 1))`` calls.
    """

    #: Blocks at least this wide take the per-block reverse path: NumPy's
    #: pairwise summation starts at 8 elements, so only narrower blocks may
    #: have their softmax/posterior sums re-expressed as sequential lane
    #: accumulations without changing the rounding.
    _LANE_WIDTH_LIMIT = 8

    #: The *relaxed* reverse step has no rounding contract, so it lane-batches
    #: much wider blocks (realistic tables carry 8-30-category site/user/task
    #: columns, and the per-block loop dominates fast-mode sampling there).
    #: Blocks at or beyond this width stay on the per-block path: the padded
    #: cube would mostly hold padding, and such blocks are rare enough that
    #: one dense pass each is already efficient.  The forward noising uses
    #: the same width buckets.
    _FAST_LANE_WIDTH_LIMIT = 32

    def __init__(self, spans: Sequence[Tuple[int, int]], schedule: DiffusionSchedule):
        """``spans`` are the ``(start, stop)`` column ranges of the one-hot
        blocks inside the encoded matrix, in encoding order."""
        self.schedule = schedule
        self.spans = [(int(a), int(b)) for a, b in spans]
        widths = np.array([b - a for a, b in self.spans], dtype=np.intp)
        if widths.size and widths.min() < 2:
            raise ValueError("every categorical block needs at least 2 categories")
        self.n_blocks = len(self.spans)
        self.starts = np.array([a for a, _ in self.spans], dtype=np.intp)
        self.widths = widths
        # Forward-noising cubes, one per width bucket of the relaxed reverse
        # step, the blocks beyond its lanes being the third: (block ids, pad
        # width, block-major flat gather index, validity mask, widths,
        # starts).  Padded lanes point at the block start and are zeroed
        # through the mask.
        buckets, huge = self._fast_tables()
        groups = [(gids, pad) for gids, pad, *_ in buckets]
        if huge:
            groups.append((np.array(huge, dtype=np.intp), int(widths[huge].max())))
        self._noise_buckets = []
        for gids, pad in groups:
            w, a = widths[gids], self.starts[gids]
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
        # The reverse chain groups same-width narrow blocks so every step is a
        # handful of unpadded ``(rows, blocks, width)`` lane operations; wide
        # blocks (rare, e.g. a computing-site column) keep the per-block path,
        # which is already efficient at their size.
        self._width_groups: List[Tuple[int, np.ndarray, np.ndarray, List[np.ndarray]]] = []
        for w in sorted({int(v) for v in widths if v < self._LANE_WIDTH_LIMIT}):
            gidx = np.nonzero(widths == w)[0]
            gcols = np.concatenate([np.arange(*self.spans[b], dtype=np.intp) for b in gidx])
            lane_cols = [self.starts[gidx] + j for j in range(w)]
            self._width_groups.append((w, gidx, gcols, lane_cols))
        self._wide_blocks = [b for b in range(self.n_blocks)
                             if widths[b] >= self._LANE_WIDTH_LIMIT]
        # Zeroing the one-hot columns is a cheap slice write when they tile a
        # contiguous range of the encoded matrix (the common layout).
        if self.columns.size and np.array_equal(
            self.columns, np.arange(self.columns[0], self.columns[-1] + 1)
        ):
            self._col_span: Optional[Tuple[int, int]] = (int(self.columns[0]), int(self.columns[-1]) + 1)
        else:
            self._col_span = None
        #: reverse-step scratch buffers, keyed by (width, blocks, chunk rows)
        self._buffers: dict = {}

    def __getstate__(self):
        # Scratch buffers and the lazily-derived serving tables are
        # request-sized; both are regrown on first use after unpickling.
        state = dict(self.__dict__)
        state["_buffers"] = {}
        state.pop("_fast_tables_", None)
        return state

    def _group_scratch(self, w: int, m: int, nc: int, dtype: np.dtype) -> dict:
        # Lane-major (width, rows, blocks) scratch: every per-lane operation
        # runs over a fully contiguous (rows, blocks) plane, avoiding NumPy's
        # slow tiny-inner-axis loops.  The scratch dtype follows the
        # prediction's (float64 on the exact chain, float32 on the relaxed
        # serving chain, which halves the bandwidth of every pass).
        return bounded_scratch(
            self._buffers,
            (w, m, nc, dtype),
            lambda: {
                "g": np.empty((w, nc, m), dtype=dtype),
                "fx": np.empty((w, nc, m), dtype=dtype),
                "mx": np.empty((nc, m), dtype=dtype),
                "tot": np.empty((nc, m), dtype=dtype),
                "dg": np.empty((nc, m), dtype=dtype),
                "cnt": np.empty((nc, m), dtype=np.intp),
                "flat": np.arange(nc * m).reshape(nc, m),
            },
        )

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

    def chosen_from(self, state: np.ndarray) -> np.ndarray:
        """Category index of every one-hot block in ``state``, shape ``(n, B)``."""
        n = state.shape[0]
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        for w, gidx, gcols, _lane_cols in self._width_groups:
            seg = np.take(state, gcols, axis=1).reshape(n, gidx.size, w)
            chosen[:, gidx] = np.argmax(seg, axis=2)
        for b in self._wide_blocks:
            start, stop = self.spans[b]
            chosen[:, b] = np.argmax(state[:, start:stop], axis=1)
        return chosen

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
        draw).  Same-width narrow blocks are processed as one unpadded
        ``(rows, blocks, width)`` segment whose reductions run lane by lane —
        NumPy sums fewer than 8 elements sequentially, so the accumulation
        order (and rounding) matches the per-block ``sum(axis=1)`` exactly;
        maxima are order-insensitive.  ``x_t`` enters the posterior only
        through ``alpha * x_t + beta`` with one-hot ``x_t``, which is
        reproduced exactly by filling ``beta`` and scattering ``alpha + beta``
        at the previously chosen categories (``alpha * 0 + beta`` and
        ``alpha * 1 + beta`` round to precisely those values).  Wide blocks
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
        if prev_chosen is None and t != 0 and self._width_groups:
            prev_chosen = self.chosen_from(out)
        draws = rng.random((self.n_blocks, n))
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        # Every operation below is strictly row-wise, so processing the rows
        # in cache-sized chunks changes no value — it just keeps the ~17
        # passes over the block segment in cache instead of main memory.
        chunk = even_row_chunks(n, 8 * self.columns.size, 1 << 22)
        for r0 in range(0, n, chunk):
            r1 = min(n, r0 + chunk)
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

    # -- relaxed serving reverse step ---------------------------------------------

    def _fast_tables(self):
        """Width-bucketed lane-major gather tables for the relaxed reverse step.

        Returns ``(groups, huge)``: each group is ``(block ids, pad width,
        per-lane gather columns, per-lane padded block ids, widths)`` for one
        width bucket — the narrow bucket (width < 8, matching the exact
        path's lane grouping) and the wide bucket (8 to
        ``_FAST_LANE_WIDTH_LIMIT - 1``), which the exact kernel must leave on
        the per-block path to preserve pairwise-summation rounding but the
        relaxed kernel is free to batch.  Bucketing keeps the padding waste
        bounded: each cube pads to its own bucket's maximum, not the table
        maximum.  Lane ``j`` of a block narrower than ``j+1`` gathers the
        block's last column (a harmless duplicate: it never exceeds the
        block maximum) and is zeroed after the exp.  ``huge`` lists the
        blocks at or beyond the limit, which keep the per-block path.  Built
        lazily so instances restored from older fits work unchanged.
        """
        cached = getattr(self, "_fast_tables_", None)
        if cached is not None:
            return cached
        tables = build_width_bucket_tables(
            self.widths,
            self.starts,
            narrow_limit=self._LANE_WIDTH_LIMIT,
            fast_limit=self._FAST_LANE_WIDTH_LIMIT,
        )
        self._fast_tables_ = tables
        return tables

    def _fast_scratch(self, gi: int, nb: int, pad: int, nc: int, dtype: np.dtype) -> dict:
        return bounded_scratch(
            self._buffers,
            ("fast", gi, nb, pad, nc, dtype),
            lambda: {
                "cube": np.empty((pad, nc, nb), dtype=dtype),
                "mx": np.empty((nc, nb), dtype=dtype),
                "tot": np.empty((nc, nb), dtype=dtype),
                "dg": np.empty((nc, nb), dtype=dtype),
                "cmp": np.empty((nc, nb), dtype=bool),
                "cnt": np.empty((nc, nb), dtype=np.intp),
                "idx": np.empty((nc, nb), dtype=np.intp),
                "idx_base": np.arange(nc, dtype=np.intp)[:, None] * nb
                + np.arange(nb, dtype=np.intp)[None, :],
            },
        )

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
        removes most of the per-step passes: the blocks evaluate as
        zero-padded ``(pad, rows, blocks)`` width-bucket cubes whose
        reductions run as single whole-cube numpy calls, probabilities stay
        unnormalised (the uniform draw is scaled by the total mass instead of
        normalising every lane), and the posterior's ``x_t`` factor is
        applied as a scatter multiply at the previously chosen categories
        only.  Unlike the exact kernel — whose lane grouping must stop at
        8-wide blocks to preserve NumPy's pairwise-summation rounding — the
        relaxed kernel lane-batches everything up to
        ``_FAST_LANE_WIDTH_LIMIT``-wide blocks; only blocks beyond that keep
        the per-block path.  Used by ``sampling_mode="fast"``; validated
        distributionally (chi-squared) in ``tests/test_serving_modes.py``.
        """
        if not self.n_blocks:
            return None
        n = out.shape[0]
        onehot_prev = prev_chosen is not None
        if prev_chosen is None and t != 0:
            prev_chosen = self.chosen_from(out)
        # Relaxed mode: float32 uniforms are cheaper to draw and to compare
        # against the float32 CDFs (a different stream from the exact chain,
        # which this mode does not promise to reproduce).
        draws = rng.random((self.n_blocks, n), dtype=np.float32)
        chosen = np.empty((n, self.n_blocks), dtype=np.intp)
        # Cache budget in *bytes* (itemsize-aware, so float32 serving states
        # fit twice the rows per pass).  The relaxed kernel's whole-cube
        # passes like tighter chunks than the exact kernel's plane loops: a
        # 1 MiB row budget measured ~10% faster than the exact path's 4 MiB
        # at serving sizes.
        chunk = even_row_chunks(
            n, prediction.dtype.itemsize * self.columns.size, 1 << 20
        )
        for r0 in range(0, n, chunk):
            r1 = min(n, r0 + chunk)
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
            sc = bounded_scratch(
                self._buffers,
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
        groups, huge = self._fast_tables()
        for gi, (gids, pad, lane_cols, pad_blocks, gwidths) in enumerate(groups):
            self._fast_cube_group(
                prediction, t, draws, prev_chosen, chosen,
                gi, gids, pad, lane_cols, pad_blocks, gwidths, n,
            )
        self._p_sample_wide_blocks(out, prediction, t, draws, chosen, blocks=huge)

    def _fast_cube_group(
        self,
        prediction: np.ndarray,
        t: int,
        draws: np.ndarray,
        prev_chosen: Optional[np.ndarray],
        chosen: np.ndarray,
        gi: int,
        gids: np.ndarray,
        pad: int,
        lane_cols,
        pad_blocks,
        gwidths: np.ndarray,
        n: int,
    ) -> None:
        """Relaxed reverse step of one width bucket as a padded lane cube."""
        sched = self.schedule
        s = self._fast_scratch(gi, int(gids.size), pad, n, prediction.dtype)
        cube, mx, tot, dg, cnt = s["cube"], s["mx"], s["tot"], s["dg"], s["cnt"]
        dtype = cube.dtype
        for j in range(pad):
            np.take(prediction, lane_cols[j], axis=1, out=cube[j])
        # Padded lanes duplicate their block's first logit (never above
        # the block maximum, so the max is unaffected) and are zeroed
        # right after the exp.  Every reduction runs lane by lane over
        # contiguous (rows, blocks) planes — numpy processes those at
        # full bandwidth, while both a tiny trailing axis and axis-0
        # reductions/cumsums of this shape fall off a cliff (measured
        # ~5-40x slower).
        np.copyto(mx, cube[0])
        for j in range(1, pad):
            np.maximum(mx, cube[j], out=mx)
        if t != 0:
            # Unnormalised posterior, everything scaled by the softmax
            # total S = Σexp and by beta = (1-alpha)/K:
            # p_j ∝ (abar·beta)·e_j + ((1-abar)/K·abar)·Σ(abar·beta·e).
            # The (abar·beta) factor folds into the exp as a log shift
            # (one plane op instead of a whole-cube multiply), and the
            # chosen lane's extra (alpha+beta)/beta posterior factor is a
            # scatter multiply over (rows, blocks), not a cube pass.
            alpha_t = float(sched.alphas[t])
            alpha_bar_prev = float(sched.alphas_bar_prev[t])
            beta = ((1.0 - alpha_t) / gwidths).astype(dtype)
            log_ab_beta = np.log(alpha_bar_prev * beta).astype(dtype)
            np.subtract(mx, log_ab_beta[None, :], out=mx)
            for j in range(pad):
                np.subtract(cube[j], mx, out=cube[j])
            np.exp(cube, out=cube)
            for j in range(2, pad):
                if pad_blocks[j].size:
                    cube[j][:, pad_blocks[j]] = 0.0
            np.copyto(tot, cube[0])
            for j in range(1, pad):
                np.add(tot, cube[j], out=tot)
            ct_coef = ((1.0 - alpha_bar_prev) / (gwidths * alpha_bar_prev)).astype(dtype)
            np.multiply(tot, ct_coef[None, :], out=tot)
            np.add(cube, tot[None, :, :], out=cube)
            ratio = ((alpha_t + beta) / beta).astype(dtype)
            idx = np.multiply(prev_chosen[:, gids], n * gids.size, out=s["idx"])
            idx += s["idx_base"]
            flat_cube = cube.reshape(-1)
            flat_cube[idx] = flat_cube[idx] * ratio[None, :]
            for j in range(2, pad):
                if pad_blocks[j].size:
                    cube[j][:, pad_blocks[j]] = 0.0
        else:
            for j in range(pad):
                np.subtract(cube[j], mx, out=cube[j])
            np.exp(cube, out=cube)
            for j in range(2, pad):
                if pad_blocks[j].size:
                    cube[j][:, pad_blocks[j]] = 0.0
        # In-lane CDF; the draw is scaled by the total mass instead of
        # normalising every lane (same distribution).
        for j in range(1, pad):
            np.add(cube[j], cube[j - 1], out=cube[j])
        draws_group = draws if gids.size == self.n_blocks else draws[gids]
        np.multiply(draws_group.T, cube[pad - 1], out=dg)
        np.less_equal(cube[0], dg, out=cnt, casting="unsafe")
        for j in range(1, pad):
            np.less_equal(cube[j], dg, out=s["cmp"])
            np.add(cnt, s["cmp"], out=cnt, casting="unsafe")
        # Padded/terminal lanes tie with the total only when the scaled
        # draw rounds up to it; the clip keeps the index in-block.
        np.minimum(cnt, gwidths[None, :] - 1, out=cnt)
        chosen[:, gids] = cnt

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

        for w, gidx, _gcols, lane_cols in self._width_groups:
            m = gidx.size
            s = self._group_scratch(w, m, n, prediction.dtype)
            g, mx, tot, dg, cnt = s["g"], s["mx"], s["tot"], s["dg"], s["cnt"]
            for j in range(w):
                np.take(prediction, lane_cols[j], axis=1, out=g[j])
            # Blockwise softmax of the x0 logits (lane planes are contiguous;
            # plane-sequential sums match the per-block ``sum(axis=1)`` of
            # fewer than 8 elements bit for bit, maxima in any order).
            np.copyto(mx, g[0])
            for j in range(1, w):
                np.maximum(mx, g[j], out=mx)
            for j in range(w):
                np.subtract(g[j], mx, out=g[j])
            np.exp(g, out=g)
            np.copyto(tot, g[0])
            for j in range(1, w):
                np.add(tot, g[j], out=tot)
            np.maximum(tot, 1e-12, out=tot)
            for j in range(w):
                np.divide(g[j], tot, out=g[j])
            if t == 0:
                np.copyto(tot, g[0])
                for j in range(1, w):
                    np.add(tot, g[j], out=tot)
                np.maximum(tot, 1e-12, out=tot)
                for j in range(w):
                    np.divide(g[j], tot, out=g[j])
            else:
                alpha_t = float(sched.alphas[t])
                alpha_bar_prev = float(sched.alphas_bar_prev[t])
                beta = (1.0 - alpha_t) / w
                factor_xt = s["fx"]
                factor_xt.fill(beta)
                flat = prev_chosen[:, gidx] * (n * m) + s["flat"]
                factor_xt.ravel()[flat.ravel()] = alpha_t * 1.0 + beta
                np.multiply(g, alpha_bar_prev, out=g)
                np.add(g, (1.0 - alpha_bar_prev) / w, out=g)
                np.multiply(g, factor_xt, out=g)
                np.copyto(tot, g[0])
                for j in range(1, w):
                    np.add(tot, g[j], out=tot)
                np.maximum(tot, 1e-12, out=tot)
                for j in range(w):
                    np.divide(g[j], tot, out=g[j])
            # Categorical draw: in-lane cumulative sums, normalise by the last
            # lane, then count CDF entries <= draw (== first-True argmax; the
            # all-False degenerate case falls back to index 0 like argmax, and
            # only exists when a lane's probability mass underflows 1e-12).
            for j in range(1, w):
                np.add(g[j], g[j - 1], out=g[j])
            degenerate = not (g[w - 1] >= 1e-12).all()
            np.maximum(g[w - 1], 1e-12, out=mx)
            for j in range(w):
                np.divide(g[j], mx, out=g[j])
            np.copyto(dg, draws[gidx].T)
            np.less_equal(g[0], dg, out=cnt, casting="unsafe")
            for j in range(1, w - 1):
                np.add(cnt, g[j] <= dg, out=cnt, casting="unsafe")
            if degenerate:
                # Rows whose normalised CDF tops out below the draw: argmax of
                # an all-False comparison is 0.
                chosen[:, gidx] = np.where(g[w - 1] <= dg, 0, cnt)
            else:
                chosen[:, gidx] = cnt

        self._p_sample_wide_blocks(out, prediction, t, draws, chosen)

        if onehot_prev:
            out[rows, self.starts[None, :] + prev_chosen] = 0.0
        else:
            self._zero_blocks(out)
        out[rows, self.starts[None, :] + chosen] = 1.0

    def _p_sample_wide_blocks(
        self,
        out: np.ndarray,
        prediction: np.ndarray,
        t: int,
        draws: np.ndarray,
        chosen: np.ndarray,
        blocks: Optional[Sequence[int]] = None,
    ) -> None:
        """Verbatim per-block reverse step for the wide (8+-category) blocks.

        The exact chunk kernel runs it for every 8+-wide block (whose bits it
        defines); the relaxed serving kernel passes ``blocks`` explicitly —
        only the blocks too wide for its padded lane cubes."""
        sched = self.schedule
        for b in self._wide_blocks if blocks is None else blocks:
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
