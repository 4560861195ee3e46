"""Width-bucketed lane tables for the relaxed block kernels.

Two serving kernels batch variable-width one-hot blocks into zero-padded
``(pad, rows, blocks)`` lane cubes: the TabDDPM reverse-diffusion posterior
(:meth:`repro.models.tabddpm.multinomial.MultinomialBlockDiffusion.p_sample_fast_into`)
and the CTABGAN+/TVAE categorical code draw
(:meth:`repro.models.ctabgan._SoftmaxBlockSampler.sample_codes_fast`).  Both
need the same derived tables — which blocks share a bucket, how far each
bucket pads, which columns each lane gathers, which lanes of which blocks
are padding — so the construction lives here once: a policy fix (bucket
bounds, padding rule) cannot drift between the two kernels.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

#: One bucket's tables: (block ids, pad width, per-lane gather columns,
#: per-lane padded block ids, per-block widths).
WidthBucket = Tuple[np.ndarray, int, List[np.ndarray], List[np.ndarray], np.ndarray]


def build_width_bucket_tables(
    widths: np.ndarray,
    starts: np.ndarray,
    *,
    narrow_limit: int,
    fast_limit: int,
) -> Tuple[List[WidthBucket], List[int]]:
    """Bucket blocks by width and derive each bucket's padded lane tables.

    Blocks land in the narrow bucket (``2 <= width < narrow_limit`` — the
    widths the exact kernels also lane-group) or the wide bucket
    (``narrow_limit <= width < fast_limit`` — relaxed kernels only).  Each
    bucket pads to its own maximum, so the padding waste is bounded by the
    bucket, not the table.  Lane ``j`` of a block narrower than ``j + 1``
    gathers the block's last column — a harmless duplicate (it never
    exceeds the block maximum) that the kernels zero right after their
    ``exp`` — as recorded in the per-lane ``pad_blocks`` lists.

    Returns ``(buckets, huge)`` where ``huge`` lists the block ids at or
    beyond ``fast_limit``, which each caller takes outside the cubes (the
    diffusion kernel per block, the code draw through a column-wise pass of
    its own); width-0/1 blocks are in neither and are the caller's concern.
    """
    widths = np.asarray(widths, dtype=np.intp)
    starts = np.asarray(starts, dtype=np.intp)
    buckets: List[WidthBucket] = []
    for lo, hi in ((2, narrow_limit), (narrow_limit, fast_limit)):
        gids = np.nonzero((widths >= lo) & (widths < hi))[0]
        if not gids.size:
            continue
        bucket_widths = widths[gids]
        bucket_starts = starts[gids]
        pad = int(bucket_widths.max())
        lane_cols = [bucket_starts + np.minimum(j, bucket_widths - 1) for j in range(pad)]
        pad_blocks = [np.nonzero(bucket_widths <= j)[0] for j in range(pad)]
        buckets.append((gids, pad, lane_cols, pad_blocks, bucket_widths))
    huge = [int(b) for b in np.nonzero(widths >= fast_limit)[0]]
    return buckets, huge


#: Scratch-buffer sets kept per distinct shape before the cache is flushed
#: (serving loops with varying request sizes must not grow one buffer set
#: per shape forever).
SCRATCH_CACHE_LIMIT = 16


def bounded_scratch(buffers: Dict, key, build: Callable[[], Dict]) -> Dict:
    """The kernels' shared scratch-cache policy: keyed reuse, bounded count.

    Returns ``buffers[key]``, building it with ``build()`` on a miss; when
    the cache holds :data:`SCRATCH_CACHE_LIMIT` shapes it is flushed first.
    Both relaxed kernels (and the exact lane kernels) route their per-shape
    scratch through this one function so the eviction policy cannot drift.
    """
    scratch = buffers.get(key)
    if scratch is None:
        if len(buffers) >= SCRATCH_CACHE_LIMIT:
            buffers.clear()
        scratch = buffers[key] = build()
    return scratch


def even_row_chunks(n: int, row_bytes: int, budget_bytes: int) -> int:
    """Rows per cache-budgeted chunk, evened out over the request.

    ``budget_bytes // row_bytes`` rows fit the cache budget; the result is
    then rounded so ``n`` splits into equal-as-possible chunks with no
    degenerate tail (processing is strictly row-wise in every caller, so
    chunk boundaries change no value — only cache residency).
    """
    chunk = max(1, budget_bytes // max(row_bytes, 1))
    if n > chunk:
        chunk = -(-n // (-(-n // chunk)))
    return chunk
