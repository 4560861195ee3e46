"""One-hot block kernels: the one layout behind every categorical draw.

Each neural surrogate draws its categorical job features (and CTABGAN+ its
mixture components) from a softmax over one-hot blocks of an encoded
matrix: CTABGAN+ and TVAE through :class:`SoftmaxCodeSampler`, TabDDPM's
reverse diffusion through
:class:`~repro.models.tabddpm.multinomial.MultinomialBlockDiffusion`.  Both
derive from :class:`OneHotBlocks`, which owns everything about a set of
blocks that does not depend on the model: the spans, how the blocks are
grouped for the batched kernels, one bounded scratch cache, the per-block
argmax, the row chunking and the lane stages both kernels run.  Each
subclass keeps only its own math.

Bucket policy
-------------
* **Lane planes, width < 8** (:attr:`OneHotBlocks.LANE_LIMIT`).  The exact
  kernels gather same-width blocks into ``(width, rows, blocks)`` planes and
  reduce lane by lane.  NumPy sums fewer than 8 elements sequentially and
  switches to pairwise summation at 8, so only below 8 does a sequential
  lane sum round exactly like the per-block ``sum`` / ``cumsum`` that
  defines the exact bits.  Wider blocks take the exact path one at a time.
* **Padded cubes, width < 32** (:attr:`OneHotBlocks.CUBE_LIMIT`).  The
  relaxed (``sampling_mode="fast"``) kernels have no rounding contract, so
  they batch blocks into zero-padded ``(pad, rows, blocks)`` cubes, one for
  widths [2, 8) and one for [8, 32), each padded to its own widest block so
  the padding is bounded by the bucket, not the table.  Lane ``j`` of a
  block narrower than ``j + 1`` gathers the block's last column (a
  duplicate that never exceeds the block maximum) and is zeroed after the
  ``exp``.
* **One block at a time, width >= 32.**  A shared cube would mostly hold
  padding; such blocks (a computing-site column) are rare and one dense
  pass each is already efficient.

Every stage is row-wise, so rows run in cache-sized chunks
(:meth:`OneHotBlocks._row_chunks`) that change no value.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np


class OneHotBlocks:
    """A set of one-hot blocks of an encoded matrix and their batched layout.

    ``spans`` are the ``(start, stop)`` column ranges of the blocks, in
    encoding order.  The tables below are built once here and pickled with
    the object; only the request-sized scratch is dropped from pickles.
    """

    #: Exact kernels lane-group blocks narrower than this (see the module
    #: docstring: NumPy's pairwise summation starts at 8 elements).
    LANE_LIMIT = 8

    #: Relaxed kernels batch blocks narrower than this into padded cubes.
    CUBE_LIMIT = 32

    #: Scratch sets kept per distinct shape before the cache is flushed, so a
    #: serving loop with varying request sizes cannot grow it forever.
    SCRATCH_LIMIT = 16

    def __init__(self, spans: Sequence[Tuple[int, int]]) -> None:
        self.spans = [(int(a), int(b)) for a, b in spans]
        self.n_blocks = len(self.spans)
        self.widths = np.array([b - a for a, b in self.spans], dtype=np.intp)
        self.starts = np.array([a for a, _ in self.spans], dtype=np.intp)
        self.total_width = int(self.widths.sum())
        # Same-width groups for the argmax: (width, block ids, gathered columns).
        self._width_groups: List[Tuple[int, np.ndarray, np.ndarray]] = []
        # The exact kernels' lane planes: (width, block ids, per-lane columns).
        self._lane_groups: List[Tuple[int, np.ndarray, List[np.ndarray]]] = []
        for w in sorted({int(v) for v in self.widths}):
            gidx = np.nonzero(self.widths == w)[0]
            lane_cols = [self.starts[gidx] + j for j in range(w)]
            self._width_groups.append((w, gidx, np.stack(lane_cols, axis=1).ravel()))
            if w < self.LANE_LIMIT:
                self._lane_groups.append((w, gidx, lane_cols))
        self._wide = [b for b in range(self.n_blocks) if self.widths[b] >= self.LANE_LIMIT]
        # The relaxed kernels' cubes: (block ids, pad width, per-lane gather
        # columns, per-lane padded block ids, per-block widths).
        self._cubes: List[
            Tuple[np.ndarray, int, List[np.ndarray], List[np.ndarray], np.ndarray]
        ] = []
        for lo, hi in ((2, self.LANE_LIMIT), (self.LANE_LIMIT, self.CUBE_LIMIT)):
            gids = np.nonzero((self.widths >= lo) & (self.widths < hi))[0]
            if not gids.size:
                continue
            widths = self.widths[gids]
            starts = self.starts[gids]
            pad = int(widths.max())
            lane_cols = [starts + np.minimum(j, widths - 1) for j in range(pad)]
            pad_blocks = [np.nonzero(widths <= j)[0] for j in range(pad)]
            self._cubes.append((gids, pad, lane_cols, pad_blocks, widths))
        self._huge = [int(b) for b in np.nonzero(self.widths >= self.CUBE_LIMIT)[0]]
        self._buffers: Dict[tuple, Dict[str, np.ndarray]] = {}

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_buffers"] = {}
        return state

    def argmax(self, matrix: np.ndarray) -> np.ndarray:
        """Category index of every block of ``matrix``, shape ``(n, blocks)``.

        Same-width blocks share one gathered ``(n, blocks, width)`` cube, and
        each lane's argmax (first maximum wins) equals the per-block one.
        """
        n = matrix.shape[0]
        codes = np.empty((n, self.n_blocks), dtype=np.intp)
        for w, gidx, gcols in self._width_groups:
            segment = np.take(matrix, gcols, axis=1).reshape(n, gidx.size, w)
            codes[:, gidx] = np.argmax(segment, axis=2)
        return codes

    # -- scratch and row chunks ----------------------------------------------------
    def _scratch(self, key: tuple, build: Callable[[], Dict[str, np.ndarray]]):
        """``build()``'s arrays for ``key``, reused; flushed at the limit."""
        scratch = self._buffers.get(key)
        if scratch is None:
            if len(self._buffers) >= self.SCRATCH_LIMIT:
                self._buffers.clear()
            scratch = self._buffers[key] = build()
        return scratch

    def _lane_scratch(self, w: int, m: int, nc: int, dtype: np.dtype):
        # Lane-major (width, rows, blocks) planes: every per-lane operation
        # runs over a contiguous (rows, blocks) plane, avoiding NumPy's slow
        # tiny-inner-axis loops.  The dtype follows the kernel's input.
        return self._scratch(
            ("lanes", w, m, nc, dtype),
            lambda: {
                "g": np.empty((w, nc, m), dtype=dtype),
                "aux": np.empty((w, nc, m), dtype=dtype),
                "mx": np.empty((nc, m), dtype=dtype),
                "tot": np.empty((nc, m), dtype=dtype),
                "dg": np.empty((nc, m), dtype=dtype),
                "cnt": np.empty((nc, m), dtype=np.intp),
                "base": np.arange(nc * m, dtype=np.intp).reshape(nc, m),
            },
        )

    def _cube_scratch(self, gi: int, nc: int, dtype: np.dtype):
        gids, pad = self._cubes[gi][:2]
        nb = gids.size
        return self._scratch(
            ("cube", gi, nc, dtype),
            lambda: {
                "cube": np.empty((pad, nc, nb), dtype=dtype),
                "mx": np.empty((nc, nb), dtype=dtype),
                "tot": np.empty((nc, nb), dtype=dtype),
                "dg": np.empty((nc, nb), dtype=dtype),
                "cmp": np.empty((nc, nb), dtype=bool),
                "cnt": np.empty((nc, nb), dtype=np.intp),
                "idx": np.empty((nc, nb), dtype=np.intp),
                "base": np.arange(nc * nb, dtype=np.intp).reshape(nc, nb),
            },
        )

    def _row_chunks(self, n: int, itemsize: int, budget_bytes: int) -> List[Tuple[int, int]]:
        """Row ranges of cache-budgeted chunks, evened out over ``n`` rows.

        ``budget_bytes`` of block columns fit a chunk; the chunk size is then
        rounded so ``n`` splits into equal-as-possible chunks with no
        degenerate tail.
        """
        chunk = max(1, budget_bytes // max(itemsize * self.total_width, 1))
        if n > chunk:
            chunk = -(-n // (-(-n // chunk)))
        return [(r0, min(n, r0 + chunk)) for r0 in range(0, n, chunk)]

    # -- lane stages -----------------------------------------------------------------
    @staticmethod
    def _gather_max(values, planes, mx, lane_cols) -> None:
        """Gather one plane per lane and take each block's maximum."""
        for j, cols in enumerate(lane_cols):
            np.take(values, cols, axis=1, out=planes[j])
        np.copyto(mx, planes[0])
        for j in range(1, len(lane_cols)):
            np.maximum(mx, planes[j], out=mx)

    @staticmethod
    def _lanewise(op, planes, plane) -> None:
        """``planes[j] = op(planes[j], plane)`` for every lane ``j``."""
        for j in range(len(planes)):
            op(planes[j], plane, out=planes[j])

    @staticmethod
    def _sum_lanes(planes, tot) -> None:
        """Sequential lane sum: the per-block ``sum`` of fewer than 8 elements."""
        np.copyto(tot, planes[0])
        for j in range(1, len(planes)):
            np.add(tot, planes[j], out=tot)

    @classmethod
    def _normalise_lanes(cls, planes, tot) -> None:
        """Divide every lane by the lane sum, clamped at 1e-12."""
        cls._sum_lanes(planes, tot)
        np.maximum(tot, 1e-12, out=tot)
        cls._lanewise(np.divide, planes, tot)

    @staticmethod
    def _cumsum_lanes(planes) -> None:
        """In-lane cumulative sums: the per-block ``cumsum``."""
        for j in range(1, len(planes)):
            np.add(planes[j], planes[j - 1], out=planes[j])

    def _draw_lanes(self, values, draws, codes, weigh) -> None:
        """Exact draw of every lane-grouped block into ``codes``.

        Each group's planes are gathered and shifted by the block maximum;
        ``weigh(scratch, width, block ids)`` turns them into in-lane CDFs
        and returns whether a row's CDF may top out below its draw.  The
        code is the count of CDF entries at or below the draw, which equals
        the first-True ``argmax`` of ``draw < cdf`` because the CDF never
        decreases; a row whose last entry is at or below the draw falls back
        to 0, as that ``argmax`` of an all-False row does.
        """
        n = values.shape[0]
        for w, gidx, lane_cols in self._lane_groups:
            s = self._lane_scratch(w, gidx.size, n, values.dtype)
            g, dg, cnt = s["g"], s["dg"], s["cnt"]
            self._gather_max(values, g, s["mx"], lane_cols)
            self._lanewise(np.subtract, g, s["mx"])
            fallback = weigh(s, w, gidx)
            np.copyto(dg, draws[gidx].T)
            np.less_equal(g[0], dg, out=cnt, casting="unsafe")
            for j in range(1, w - 1):
                np.add(cnt, g[j] <= dg, out=cnt, casting="unsafe")
            codes[:, gidx] = np.where(g[w - 1] <= dg, 0, cnt) if fallback else cnt

    def _draw_cubes(self, values, draws, codes, weigh) -> None:
        """Relaxed draw of every cube-bucket block into ``codes``.

        Each cube's lanes are gathered and the block maxima taken;
        ``weigh(scratch, cube)`` turns the cube into unnormalised weights
        (through :meth:`_exp_cube`).  The weights become an in-lane CDF, the
        draw is scaled by the total mass instead of normalising every lane,
        and the code is the count of CDF entries at or below it, clamped
        into the block: padded and terminal lanes tie with the total only
        when the scaled draw rounds up to it.
        """
        n = values.shape[0]
        for gi, cube_spec in enumerate(self._cubes):
            gids, _pad, lane_cols, _pad_blocks, widths = cube_spec
            s = self._cube_scratch(gi, n, values.dtype)
            cube, dg, cnt = s["cube"], s["dg"], s["cnt"]
            self._gather_max(values, cube, s["mx"], lane_cols)
            weigh(s, cube_spec)
            self._cumsum_lanes(cube)
            draws_cube = draws if gids.size == self.n_blocks else draws[gids]
            np.multiply(draws_cube.T, cube[-1], out=dg)
            np.less_equal(cube[0], dg, out=cnt, casting="unsafe")
            for j in range(1, len(cube)):
                np.less_equal(cube[j], dg, out=s["cmp"])
                np.add(cnt, s["cmp"], out=cnt, casting="unsafe")
            np.minimum(cnt, widths[None, :] - 1, out=cnt)
            codes[:, gids] = cnt

    @classmethod
    def _exp_cube(cls, cube, mx, pad_blocks) -> None:
        """Shift by ``mx``, ``exp`` and zero the padded lanes."""
        cls._lanewise(np.subtract, cube, mx)
        np.exp(cube, out=cube)
        cls._zero_padding(cube, pad_blocks)

    @staticmethod
    def _zero_padding(cube, pad_blocks) -> None:
        # Every block is at least 2 wide, so lanes 0 and 1 never pad.
        for j in range(2, len(cube)):
            if pad_blocks[j].size:
                cube[j][:, pad_blocks[j]] = 0.0


class SoftmaxCodeSampler(OneHotBlocks):
    """One category per block from the softmax of raw logits (CTABGAN+, TVAE).

    The historical sampling path activated every softmax block, wrote the
    probabilities into a dense matrix, re-normalised each block, drew one
    uniform per row against its CDF, scattered a one-hot copy and finally
    took a per-block ``argmax`` to decode — but the hardened matrix never
    leaves ``sample``, so only the drawn *codes* matter.  :meth:`sample_codes`
    computes them directly, bit- and stream-identically to that chain:

    * the blockwise softmax follows the fused activation formula
      (``exp(shifted - log_sum)``, bit-identical to the unfused per-block
      ``.softmax()`` composition) element for element;
    * ``rng.random((blocks, rows))`` consumes the generator stream in the
      order of the sequential per-block ``rng.random((rows, 1))`` calls;
    * blocks narrower than 8 run as lane planes (see the module docstring);
      wider ones keep the per-block path;
    * softmax outputs are strictly positive, so each block CDF is strictly
      increasing and the count of CDF entries at or below the draw equals
      the historical first-True ``argmax``.
    """

    def __init__(self, spans: Sequence[Tuple[int, int]]) -> None:
        super().__init__(spans)
        # Width-1 blocks (a constant category) never enter a cube: code 0.
        self._ones = np.nonzero(self.widths == 1)[0]

    def sample_codes(self, raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw one category per block from the raw logits, shape ``(n, B)``."""
        n = raw.shape[0]
        codes = np.empty((n, self.n_blocks), dtype=np.intp)
        if not self.n_blocks:
            return codes
        draws = rng.random((self.n_blocks, n))
        for r0, r1 in self._row_chunks(n, raw.dtype.itemsize, 1 << 22):
            self._draw_lanes(raw[r0:r1], draws[:, r0:r1], codes[r0:r1], self._softmax_cdf)
            self._codes_wide_blocks(raw[r0:r1], draws[:, r0:r1], codes[r0:r1])
        return codes

    def _softmax_cdf(self, s, w, gidx) -> bool:
        g, ex, tot = s["g"], s["aux"], s["tot"]
        # Blockwise softmax: exp(shifted - log(sum(exp(shifted)))).
        np.exp(g, out=ex)
        self._sum_lanes(ex, tot)
        np.log(tot, out=tot)
        self._lanewise(np.subtract, g, tot)
        np.exp(g, out=g)
        # Hardening draw: renormalise and build the CDF.
        self._normalise_lanes(g, tot)
        self._cumsum_lanes(g)
        return True

    def _codes_wide_blocks(self, raw, draws, codes) -> None:
        """Verbatim per-block softmax + draw (defines the exact path's bits)."""
        for b in self._wide:
            start, stop = self.spans[b]
            logits = raw[:, start:stop]
            shifted = logits - logits.max(axis=1, keepdims=True)
            expv = np.exp(shifted)
            log_sum = np.log(expv.sum(axis=1, keepdims=True))
            np.subtract(shifted, log_sum, out=shifted)
            probs = np.exp(shifted)
            probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1e-12)
            cumulative = np.cumsum(probs, axis=1)
            codes[:, b] = (draws[b][:, None] < cumulative).argmax(axis=1)

    def sample_codes_fast(self, raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Relaxed code draw: same per-block categorical law, contract waived.

        Each block's category still comes from the softmax of its logits,
        but the bit/stream promises of :meth:`sample_codes` are dropped,
        which removes most of the work: blocks narrower than
        :attr:`CUBE_LIMIT` evaluate as padded cubes (single whole-cube numpy
        passes instead of a Python loop per wide block) and wider blocks run
        the same passes over their own columns; the probabilities stay
        unnormalised — the uniform draw is scaled by the total mass,
        skipping the exact path's log/renormalise passes — and the draws
        are taken in the logits' precision.  Used by
        ``sampling_mode="fast"``; validated distributionally (chi-squared)
        and bit for bit against a per-block replay in
        ``tests/test_serving_modes.py``.
        """
        n = raw.shape[0]
        codes = np.empty((n, self.n_blocks), dtype=np.intp)
        if not self.n_blocks:
            return codes
        dtype = np.float32 if raw.dtype == np.float32 else np.float64
        draws = rng.random((self.n_blocks, n), dtype=dtype)
        if self._ones.size:
            codes[:, self._ones] = 0
        # Cache budget in *bytes*: float32 logits fit twice the rows of the
        # exact path's float64 chunks, halving the per-chunk call overhead.
        for r0, r1 in self._row_chunks(n, raw.dtype.itemsize, 1 << 22):
            self._draw_cubes(raw[r0:r1], draws[:, r0:r1], codes[r0:r1], self._softmax_weights)
            self._codes_huge_fast(raw[r0:r1], draws[:, r0:r1], codes[r0:r1])
        return codes

    def _softmax_weights(self, s, cube_spec) -> None:
        self._exp_cube(s["cube"], s["mx"], cube_spec[3])

    def _codes_huge_fast(self, raw, draws, codes) -> None:
        """The relaxed draw for blocks too wide to share a padded cube.

        The cube passes, run over the block's own columns: the row maximum,
        ``exp`` of the shifted logits, the unnormalised CDF as one running
        add per column, and the count of CDF entries at or below
        ``draw × total mass``, clamped to ``width - 1`` for a scaled draw
        that rounds up to the total.  The CDF never decreases, so that count
        is the first entry above the scaled draw.  Column passes over the
        strided block are several times cheaper than numpy's row-wise
        ``max``/``cumsum`` at these widths.
        """
        for b in self._huge:
            start, stop = self.spans[b]
            width = stop - start
            logits = raw[:, start:stop]
            mx = logits[:, 0].copy()
            for j in range(1, width):
                np.maximum(mx, logits[:, j], out=mx)
            cdf = logits - mx[:, None]
            np.exp(cdf, out=cdf)
            for j in range(1, width):
                np.add(cdf[:, j], cdf[:, j - 1], out=cdf[:, j])
            scaled = draws[b] * cdf[:, -1]
            chosen = (cdf > scaled[:, None]).argmax(axis=1)
            chosen[cdf[:, -1] <= scaled] = width - 1
            codes[:, b] = chosen
