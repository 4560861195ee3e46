"""Fused autograd operations for the tabular training hot paths.

The generative surrogates spend their training steps in three recurring
patterns that, expressed through elementary :class:`~repro.nn.tensor.Tensor`
ops, each build a dozen graph nodes *per encoded column* and allocate several
full-batch arrays on the way back (the worst offender being ``np.add.at``
over a freshly zeroed ``(batch, features)`` matrix per sliced block):

* the mixed reconstruction/denoising loss (MSE over the numerical columns
  plus a categorical cross entropy per one-hot block) used by TVAE and
  TabDDPM,
* the per-block generator output activation of CTABGAN+ (tanh for the
  mode-normalisation alphas, softmax for every one-hot block), and
* CTABGAN+'s conditional cross entropy over row subsets.

Each function here produces the *identical* float results as the unfused
composition — so losses, gradients and hence trained parameters are
bit-for-bit equal — but records a single graph node whose backward pass
writes one gradient matrix directly, and runs the elementwise math across
*all* blocks at once.  Only two kinds of reduction stay per-block:

* sums whose IEEE-754 rounding depends on the summation-tree shape (the
  softmax normaliser ``sum(exp(shifted))`` and non-one-hot gradient sums) are
  taken with ``np.sum`` over views of the same element count as the unfused
  slices, which numpy reduces with the same count-based pairwise tree;
* order-*insensitive* reductions — block maxima (exact in any order) and
  sums of one-hot-masked rows (one non-zero plus exact zeros) — collapse into
  single ``np.maximum.reduceat`` / ``np.add.reduceat`` calls.

The bit-equality of the scatter side relies on two IEEE-754 facts: addition
of two terms is commutative, and adding (signed) zero never changes a finite
non-zero value.  Every element of the fused gradient matrix receives exactly
one non-zero contribution (the sliced blocks are disjoint), so the order in
which the unfused graph would have accumulated its zero-padded per-block
arrays is immaterial.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "BlockLayout",
    "mixed_reconstruction_loss",
    "tanh_softmax_blocks",
    "conditional_blocks_loss",
]


class BlockLayout:
    """Pre-computed gather/scatter indices for a set of column blocks.

    Built once per ``fit`` from the ``(start, stop)`` spans of the one-hot
    blocks inside an encoded matrix; every fused op below then works on a
    gathered ``(rows, total_block_width)`` sub-matrix without recomputing
    index arrays per training step.

    Internally the blocks are re-ordered by width so that equal-width blocks
    sit next to each other in the gathered matrix: a run of ``m`` blocks of
    width ``w`` reshapes to ``(rows, m, w)`` and reduces over its last axis
    in one call — with exactly the per-lane summation order of a per-block
    ``(rows, w)`` reduction, so results stay bit-identical.  ``perm`` maps
    gathered block positions back to the original block order for the few
    places (the scalar loss accumulation) where that order matters.
    """

    def __init__(self, spans: Sequence[Tuple[int, int]]):
        self.spans = [(int(a), int(b)) for a, b in spans]
        self.n_blocks = len(self.spans)
        original_widths = [b - a for a, b in self.spans]
        #: original block ids in gathered (width-sorted) order
        self.perm = sorted(range(self.n_blocks), key=lambda j: (original_widths[j], j))
        #: gathered position of every original block id
        self.inv_perm = np.empty(self.n_blocks, dtype=np.intp)
        for pos, j in enumerate(self.perm):
            self.inv_perm[j] = pos
        widths = np.array([original_widths[j] for j in self.perm], dtype=np.intp)
        self.widths = widths
        #: columns of the original matrix covered by the blocks, gathered order
        self.columns = (
            np.concatenate(
                [np.arange(*self.spans[j], dtype=np.intp) for j in self.perm]
            )
            if self.spans else np.empty(0, dtype=np.intp)
        )
        #: start of each block inside the gathered sub-matrix
        self.starts = np.concatenate([[0], np.cumsum(widths)[:-1]]).astype(np.intp) \
            if self.spans else np.empty(0, dtype=np.intp)
        #: for every gathered column, the gathered index of its block
        self.block_of_col = np.repeat(np.arange(self.n_blocks, dtype=np.intp), widths)
        self.total_width = int(widths.sum()) if self.spans else 0
        #: runs of equal width: (width, first col, last col, first block, last block)
        self.width_groups: List[Tuple[int, int, int, int, int]] = []
        pos = 0
        col = 0
        while pos < self.n_blocks:
            width = int(widths[pos])
            stop = pos
            while stop < self.n_blocks and widths[stop] == width:
                stop += 1
            n_run = stop - pos
            self.width_groups.append((width, col, col + n_run * width, pos, stop))
            col += n_run * width
            pos = stop

    def block_sums(self, gathered: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-block last-axis sums of a gathered matrix, one reduction per
        width group, each bit-identical to a per-block ``sum(axis=-1)``."""
        n = gathered.shape[0]
        sums = out if out is not None else np.empty((n, self.n_blocks))
        for width, c0, c1, b0, b1 in self.width_groups:
            seg = np.ascontiguousarray(gathered[:, c0:c1]).reshape(n, b1 - b0, width)
            seg.sum(axis=-1, out=sums[:, b0:b1])
        return sums


def _as_layout(blocks) -> BlockLayout:
    return blocks if isinstance(blocks, BlockLayout) else BlockLayout(blocks)


def _blockwise_log_softmax(
    gathered: np.ndarray, layout: BlockLayout
) -> Tuple[np.ndarray, np.ndarray]:
    """``(log_probs, softmax)`` per block over a gathered matrix.

    Block maxima are exact in any order, so one ``maximum.reduceat`` takes
    them all, and every elementwise stage runs once over the whole matrix.
    Only the normaliser sums are order-sensitive: :meth:`BlockLayout.block_sums`
    reduces stride-1 lanes of each block's width, the per-lane pairwise
    rounding of the unfused slices.
    """
    of_col = layout.block_of_col
    shifted = gathered - np.maximum.reduceat(gathered, layout.starts, axis=1)[:, of_col]
    softmax = np.exp(shifted)
    log_sum = np.log(layout.block_sums(softmax))
    # shifted is no longer needed as-is: overwrite it with the log-probs.
    log_probs = np.subtract(shifted, log_sum[:, of_col], out=shifted)
    np.exp(log_probs, out=softmax)
    return log_probs, softmax


def _attach(pred: Tensor, value: np.ndarray, backward) -> Tensor:
    """Wrap ``value`` as a graph node over ``pred`` with the given backward."""
    requires = is_grad_enabled() and pred.requires_grad
    out = Tensor(value, requires_grad=requires)
    if requires:
        out._prev = (pred,)
        out._backward = backward(out)
    return out


def _accumulate_owned(tensor: Tensor, grad: np.ndarray) -> None:
    """Accumulate a freshly allocated same-shape gradient without copying."""
    if tensor.grad is None:
        tensor.grad = grad
    else:
        tensor.grad += grad


def mixed_reconstruction_loss(
    pred: Tensor,
    numerical_indices: np.ndarray,
    numerical_target: Optional[np.ndarray],
    categorical_blocks,
    categorical_target: np.ndarray,
) -> Tensor:
    """Fused mixed-type loss: ``mse * n_num + Σ cross_entropy(block)``.

    Bit-identical to the unfused reference::

        loss = Tensor(0.0)
        if num_idx.size:
            loss = loss + mse_loss(pred[:, num_idx], numerical_target) * float(num_idx.size)
        for start, stop in categorical_blocks:
            loss = loss + cross_entropy_logits(pred[:, start:stop], target[:, start:stop])

    ``numerical_target`` is the ``(n, n_num)`` regression target (the encoded
    batch columns for TVAE, the drawn noise for TabDDPM);
    ``categorical_target`` is the full-width encoded batch whose blocks must
    be strictly one-hot rows (this makes the per-block gradient sums exact in
    any order, which is what lets them collapse into one ``add.reduceat``).
    ``categorical_blocks`` is a :class:`BlockLayout` or a span list.
    """
    layout = _as_layout(categorical_blocks)
    data = pred.data
    n = data.shape[0]
    num_idx = np.asarray(numerical_indices, dtype=np.intp)
    loss_val = np.asarray(0.0, dtype=np.float64)

    diff = None
    count = 0
    if num_idx.size:
        pred_num = data[:, num_idx]
        diff = pred_num - numerical_target
        sq = diff * diff
        count = sq.size
        mse = sq.sum() * (1.0 / count)
        loss_val = loss_val + mse * float(num_idx.size)

    target_cat = None
    softmax = None
    if layout.n_blocks:
        # A fancy column gather can come back F-ordered; the per-block sums
        # must reduce along stride-1 lanes to keep the unfused pairwise
        # rounding, so force C order before the softmax stages.
        gathered = np.ascontiguousarray(data[:, layout.columns])
        target_cat = categorical_target[:, layout.columns]
        log_probs, softmax = _blockwise_log_softmax(gathered, layout)
        prod = log_probs * target_cat
        # One non-zero per row per block (one-hot target): exact via reduceat.
        s = np.add.reduceat(prod, layout.starts, axis=1)
        nll = -s
        inv_n = 1.0 / n
        # Scalar accumulation must follow the *original* block order.
        for p in layout.inv_perm:
            loss_val = loss_val + nll[:, p].sum() * inv_n
    else:
        inv_n = 1.0 / n

    def _make_backward(out: Tensor):
        def _backward() -> None:
            u = out.grad
            grad = np.zeros_like(data)
            if diff is not None:
                c = (u * float(num_idx.size)) * (1.0 / count)
                t = c * diff
                grad[:, num_idx] = t + t
            if layout.n_blocks:
                sg = -(u * inv_n)
                glp = sg * target_cat
                # Per-block sums of glp are exactly sg (one non-zero sg per
                # one-hot row-block, plus exact zeros), so the broadcasted
                # scalar replaces a reduceat+gather.
                grad[:, layout.columns] = glp - softmax * sg
            _accumulate_owned(pred, grad)
        return _backward

    return _attach(pred, loss_val, _make_backward)


def tanh_softmax_blocks(
    raw: Tensor,
    tanh_columns: np.ndarray,
    softmax_blocks,
) -> Tensor:
    """Fused per-block output activation: tanh columns + softmax blocks.

    Equivalent to slicing ``raw`` per block, applying ``.tanh()`` /
    ``.softmax()`` and re-concatenating — provided the columns named by
    ``tanh_columns`` and ``softmax_blocks`` tile the full width of ``raw``.
    """
    layout = _as_layout(softmax_blocks)
    data = raw.data
    cols = np.asarray(tanh_columns, dtype=np.intp)
    if cols.size + layout.total_width != data.shape[1]:
        raise ValueError(
            "tanh columns and softmax blocks must tile the full input width: "
            f"{cols.size} + {layout.total_width} != {data.shape[1]}"
        )
    out_data = np.empty_like(data)
    tanh_vals = np.tanh(data[:, cols])
    out_data[:, cols] = tanh_vals
    softmax = None
    if layout.n_blocks:
        _, softmax = _blockwise_log_softmax(
            np.ascontiguousarray(data[:, layout.columns]), layout
        )
        out_data[:, layout.columns] = softmax

    def _make_backward(out: Tensor):
        def _backward() -> None:
            g = out.grad
            grad = np.empty_like(data)
            grad[:, cols] = g[:, cols] * (1.0 - tanh_vals ** 2)
            if layout.n_blocks:
                g2 = g[:, layout.columns] * softmax
                # g2 is dense, so its block sums must keep the same per-lane
                # pairwise rounding as the unfused per-block ``sum(axis=-1)``
                # (block_sums reduces stride-1 lanes of the original width).
                gsum = layout.block_sums(g2)
                grad[:, layout.columns] = g2 - softmax * np.repeat(gsum, layout.widths, axis=1)
            _accumulate_owned(raw, grad)
        return _backward

    return _attach(raw, out_data, _make_backward)


def gaussian_reparameterize(
    stats: Tensor,
    noise: np.ndarray,
    latent_dim: int,
    *,
    clip_low: float = -8.0,
    clip_high: float = 8.0,
) -> Tensor:
    """Fused VAE head: ``z = mu + exp(clip(logvar)/2) * noise`` in one node.

    ``stats`` packs ``[mu | logvar]``; the unfused composition (two slice
    nodes, clip, scale, exp, multiply, add) is replaced by a single node that
    back-propagates the identical gradient matrix into ``stats``.  Pairs with
    :func:`gaussian_kl_from_stats`, which contributes the KL gradient to
    ``stats`` as a second (bit-commutative) accumulation.
    """
    data = stats.data
    mu = data[:, :latent_dim]
    logvar_raw = data[:, latent_dim:]
    logvar = np.clip(logvar_raw, clip_low, clip_high)
    clip_mask = (logvar_raw >= clip_low) & (logvar_raw <= clip_high)
    scale = np.exp(logvar * 0.5)
    z_val = mu + scale * noise

    def _make_backward(out: Tensor):
        def _backward() -> None:
            gz = out.grad
            grad = np.empty_like(data)
            grad[:, :latent_dim] = gz
            glv = (gz * noise) * scale
            glv *= 0.5
            glv *= clip_mask
            grad[:, latent_dim:] = glv
            _accumulate_owned(stats, grad)
        return _backward

    return _attach(stats, z_val, _make_backward)


def gaussian_kl_from_stats(
    stats: Tensor,
    latent_dim: int,
    *,
    clip_low: float = -8.0,
    clip_high: float = 8.0,
) -> Tensor:
    """Fused KL(N(mu, exp(logvar)) || N(0, 1)) over a packed ``[mu | logvar]``.

    Bit-identical to ``gaussian_kl(stats[:, :L], stats[:, L:].clip(...))``:
    the clip mask distributes exactly over the summed gradient contributions,
    and the z-path/KL-path gradients meet in ``stats`` as two accumulations,
    whose order is immaterial (IEEE addition of two terms is commutative).
    """
    data = stats.data
    n = data.shape[0]
    mu = data[:, :latent_dim]
    logvar_raw = data[:, latent_dim:]
    logvar = np.clip(logvar_raw, clip_low, clip_high)
    clip_mask = (logvar_raw >= clip_low) & (logvar_raw <= clip_high)
    inner = (mu * mu) + np.exp(logvar) - logvar - 1.0
    kl = inner * 0.5
    per_row = kl.sum(axis=-1)
    value = per_row.sum() * (1.0 / n)

    def _make_backward(out: Tensor):
        def _backward() -> None:
            d = (out.grad * (1.0 / n)) * 0.5
            if stats.grad is None:
                stats.grad = np.zeros_like(data)
            # The unfused graph accumulates the KL terms one by one on top of
            # the already-present reparameterisation gradient (``mu`` gets
            # d*mu twice, ``logvar`` gets -d then d*exp); replaying the same
            # incremental adds keeps the FP grouping — and hence the trained
            # parameters — bit-identical.
            mu_grad = stats.grad[:, :latent_dim]
            t = d * mu
            mu_grad += t
            mu_grad += t
            lv_grad = stats.grad[:, latent_dim:]
            lv_grad += (-d) * clip_mask
            lv_grad += (d * np.exp(logvar)) * clip_mask
        return _backward

    return _attach(stats, value, _make_backward)


def conditional_blocks_loss(
    raw: Tensor,
    blocks: Sequence[Tuple[int, int]],
    col_choice: np.ndarray,
    cat_choice: np.ndarray,
) -> Tensor:
    """Fused training-by-sampling condition loss (CTABGAN+).

    For each conditioned categorical column ``j``, the rows whose condition
    targets column ``j`` contribute a cross entropy between the raw generator
    logits of that block and the sampled category; the mean over contributing
    columns is returned.  Bit-identical to the per-column
    ``cross_entropy_logits(raw[rows][:, start:stop], cats)`` composition.
    """
    layout = _as_layout(blocks)
    data = raw.data
    n_features = data.shape[1]
    flat_data = data.ravel()
    nb = layout.n_blocks
    counts = np.bincount(col_choice, minlength=nb)
    n_terms = int((counts > 0).sum())
    inv_terms = 1.0 / max(n_terms, 1)
    # Group the batch rows by conditioned column once — ordered by width
    # group, then column, then row (the stable sort preserves the ascending
    # row order of a per-column np.nonzero) — so each width group computes
    # all of its rows' cross entropies as one (rows, width) batch whose
    # per-lane reductions are bit-identical to the per-column slices.
    order = np.argsort(layout.inv_perm[col_choice], kind="stable")
    counts_p = counts[np.asarray(layout.perm, dtype=np.intp)]
    bounds_p = np.concatenate([[0], np.cumsum(counts_p)]).astype(np.intp)
    col_sorted = np.asarray(col_choice)[order]
    cats_sorted = np.asarray(cat_choice)[order].astype(np.int64)
    block_starts = np.array([a for a, _ in layout.spans], dtype=np.intp)
    start_of_row = block_starts[col_sorted]
    inv_m = np.zeros(nb)
    np.divide(1.0, counts, out=inv_m, where=counts > 0)
    inv_m_of_row = inv_m[col_sorted]

    ces = np.zeros(nb)
    saved: List[Tuple[np.ndarray, np.ndarray, np.ndarray, int, int]] = []
    for width, _c0, _c1, b0, b1 in layout.width_groups:
        r0, r1 = int(bounds_p[b0]), int(bounds_p[b1])
        if r1 == r0:
            continue
        rows = order[r0:r1]
        idx = (rows * n_features + start_of_row[r0:r1])[:, None] + np.arange(width)[None, :]
        logits = flat_data[idx.ravel()].reshape(r1 - r0, width)
        onehot = np.zeros_like(logits)
        onehot[np.arange(r1 - r0), cats_sorted[r0:r1]] = 1.0
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_sum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        log_probs = shifted - log_sum
        softmax = np.exp(log_probs)
        nll = -(log_probs * onehot).sum(axis=-1)
        # Per-column mean over its (contiguous, ascending-row) segment.
        for p in range(b0, b1):
            m = int(counts_p[p])
            if m == 0:
                continue
            seg = nll[int(bounds_p[p]) - r0 : int(bounds_p[p + 1]) - r0]
            ces[layout.perm[p]] = seg.sum() * (1.0 / m)
        saved.append((idx, softmax, onehot, r0, r1))

    loss_val = np.asarray(0.0, dtype=np.float64)
    for j in range(nb):
        if counts[j]:
            loss_val = loss_val + ces[j]
    out_val = loss_val * inv_terms

    def _make_backward(out: Tensor):
        def _backward() -> None:
            uk = out.grad * inv_terms
            grad = np.zeros_like(data)
            flat_grad = grad.ravel()
            for idx, softmax, onehot, r0, r1 in saved:
                # Per-row -(uk/m) replaces the per-column scalar; the one-hot
                # row sums of glp are exactly that scalar, so no reduction.
                sgv = -(uk * inv_m_of_row[r0:r1])[:, None]
                glp = sgv * onehot
                flat_grad[idx.ravel()] = (glp - softmax * sgv).ravel()
            _accumulate_owned(raw, grad)
        return _backward

    return _attach(raw, out_val, _make_backward)
