"""Exact k-nearest-neighbour search over mixed numerical/categorical rows.

Both SMOTE's neighbour graph and the DCR privacy metric measure rows in the
same kind of space: numerical coordinates plus categorical columns where a
mismatch costs a constant.  The squared distance between two rows is::

    d² = ‖Δnumerical‖² + mismatch_cost · h

where ``h`` is the number of categorical columns whose codes differ.  A
one-hot embedding reproduces this metric, but a KD-tree over one-hot blocks
is wide (one dimension per category) and scales badly.  :func:`mixed_knn`
instead partitions the rows by categorical code tuple (ParK-style
feature-space partitioning) and searches only the numerical dimensions.

The search runs one level per ``h = 0, 1, …``.  For every set ``S`` of ``h``
categorical columns, training rows are grouped by their codes *outside*
``S``; one KD-tree over ``[numericals, group_id · big]`` answers every
active query's ``k`` numerically nearest group-mates (``big`` exceeds twice
any numerical distance, so a search bounded at ``big / 2`` never leaves its
group).  The candidates are scored with their true ``h`` and merged into
each query's running top-``k``.  A query stays active at level ``h`` while
its k-th squared distance is at least ``mismatch_cost · h``: every row it has
not seen yet mismatches on ``h`` or more columns.

Why this is exact: take any row ``r`` whose mismatched columns are ``M``.
The search for ``S = M`` groups ``r`` with rows that mismatch only inside
``M``.  If ``r`` is not among that group's ``k`` numerically nearest, then
``k`` group-mates are at least as close numerically and mismatch on no more
columns, so ``r`` cannot be in the top ``k``.

With ``C`` categorical columns there are ``2^C`` column sets, so the number
of trees is capped (:data:`MAX_TREES`); queries still active at the cap are
finished by an exact blocked scan over all training rows.  Both paths score
a pair with the same arithmetic, so a row's distance does not depend on
which path found it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Tuple

import numpy as np
from scipy.spatial import cKDTree

#: Most KD-trees one search builds.  Wide schemas would otherwise need up to
#: 2^C trees; queries still active at the cap finish with a blocked scan.
MAX_TREES = 32

#: Default number of query rows per tree query (a memory bound).
_CHUNK_ROWS = 1 << 13

#: A search whose active queries need at most this many pairwise distances
#: finishes with the blocked scan instead of more trees.
_SCAN_CELLS = 1 << 20

#: Most pairwise distances one blocked-scan step holds in memory.
_BLOCK_CELLS = 1 << 16


def mixed_knn(
    train_num: np.ndarray,
    train_codes: np.ndarray,
    query_num: np.ndarray,
    query_codes: np.ndarray,
    k: int,
    *,
    mismatch_cost: float,
    chunk_size: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """The ``k`` nearest training rows of every query row.

    Parameters
    ----------
    train_num, query_num:
        ``(n, d)`` and ``(m, d)`` numerical coordinates (``d`` may be 0).
    train_codes, query_codes:
        ``(n, C)`` and ``(m, C)`` non-negative category codes in one shared code
        space per column (``C`` may be 0).  A query code that no training
        row has simply mismatches every training row.
    k:
        Neighbours per query; capped at ``n``.
    mismatch_cost:
        Squared-distance cost of one mismatched categorical column.
    chunk_size:
        Query rows handled per tree query; bounds memory only.

    Returns
    -------
    ``(sq_distances, indices)``, both ``(m, min(k, n))``, each row sorted by
    ascending squared distance.
    """
    train_num = np.asarray(train_num, dtype=np.float64)
    query_num = np.asarray(query_num, dtype=np.float64)
    train_codes = np.asarray(train_codes, dtype=np.int32)
    query_codes = np.asarray(query_codes, dtype=np.int32)
    n, m = train_num.shape[0], query_num.shape[0]
    if n == 0:
        raise ValueError("the training side must be non-empty")
    if k < 1:
        raise ValueError("k must be at least 1")
    if mismatch_cost < 0:
        raise ValueError("mismatch_cost must be non-negative")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    if mismatch_cost == 0:
        # Categoricals cost nothing: one group, numerical distance only.
        train_codes = train_codes[:, :0]
        query_codes = query_codes[:, :0]
    k = min(int(k), n)
    chunk = chunk_size or _CHUNK_ROWS
    best_d2 = np.full((m, k), np.inf)
    best_idx = np.full((m, k), -1, dtype=np.intp)

    # Group ids are spaced by ``big``; any numerical distance is below big/2.
    both = np.concatenate([train_num, query_num])
    spread = float(np.sqrt(np.sum(np.square(np.ptp(both, axis=0))))) if both.size else 0.0
    big = 4.0 * (spread + 1.0)

    n_cat = train_codes.shape[1]
    trees = 0
    for h in range(n_cat + 1):
        for mismatched in combinations(range(n_cat), h):
            active = np.flatnonzero(best_d2[:, -1] >= mismatch_cost * h)
            if trees == MAX_TREES or active.size * n <= _SCAN_CELLS:
                _scan(train_num, train_codes, query_num, query_codes, active,
                      best_d2, best_idx, mismatch_cost)
                return best_d2, best_idx
            trees += 1
            keep = [j for j in range(n_cat) if j not in mismatched]
            train_group, query_group = _group_ids(train_codes[:, keep], query_codes[active][:, keep])
            # Only rows sharing a group with some active query can be found.
            members = np.flatnonzero(np.isin(train_group, query_group))
            if members.size == 0:
                continue
            # Sliding-midpoint splits cut the widely spaced group axis first,
            # which builds and searches faster than median splits here.
            tree = cKDTree(
                np.column_stack([train_num[members], train_group[members] * big]), balanced_tree=False
            )
            # Tree positions back to training rows; a missing neighbour → n.
            to_row = np.append(members, n)
            for start in range(0, active.size, chunk):
                rows = active[start : start + chunk]
                points = np.column_stack([query_num[rows], query_group[start : start + chunk] * big])
                _, found = tree.query(points, k=k, distance_upper_bound=big / 2)
                found = to_row[np.reshape(found, (rows.size, k))]
                d2 = _score(train_num, train_codes, query_num[rows], query_codes[rows],
                            found, mismatch_cost)
                _merge(best_d2, best_idx, rows, d2, found)
    return best_d2, best_idx


def _group_ids(train_codes: np.ndarray, query_codes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense ids of the code tuples, shared between training and query rows."""
    both = np.concatenate([train_codes, query_codes])
    ids = np.zeros(both.shape[0], dtype=np.int64)
    bound = 1
    for column in both.T:
        radix = int(column.max()) + 1
        if bound * radix >= 1 << 62:  # re-densify before the mixed radix overflows
            ids = np.unique(ids, return_inverse=True)[1].reshape(-1)
            bound = int(ids.max()) + 1
        ids = ids * radix + column
        bound *= radix
    ids = np.unique(ids, return_inverse=True)[1].reshape(-1).astype(np.float64)
    return ids[: train_codes.shape[0]], ids[train_codes.shape[0] :]


def _score(
    train_num: np.ndarray,
    train_codes: np.ndarray,
    num: np.ndarray,
    codes: np.ndarray,
    found: np.ndarray,
    mismatch_cost: float,
) -> np.ndarray:
    """True squared distances of the ``found`` training rows (``inf`` where
    the tree returned its missing-neighbour index ``n``)."""
    missing = found >= train_num.shape[0]
    safe = np.where(missing, 0, found)
    d2 = _pair_d2(train_num[safe], train_codes[safe], num[:, None, :], codes[:, None, :], mismatch_cost)
    d2[missing] = np.inf
    return d2


def _pair_d2(
    x_num: np.ndarray,
    x_codes: np.ndarray,
    y_num: np.ndarray,
    y_codes: np.ndarray,
    mismatch_cost: float,
) -> np.ndarray:
    """Squared distances of broadcast row pairs (columns on the last axis),
    summed column by column so every caller gets the same bits."""
    shape = np.broadcast_shapes(x_num.shape[:-1], y_num.shape[:-1])
    d2 = np.zeros(shape)
    for j in range(x_num.shape[-1]):
        delta = x_num[..., j] - y_num[..., j]
        d2 += delta * delta
    mismatches = np.zeros(shape)
    for j in range(x_codes.shape[-1]):
        mismatches += x_codes[..., j] != y_codes[..., j]
    return d2 + mismatch_cost * mismatches


def _merge(
    best_d2: np.ndarray,
    best_idx: np.ndarray,
    rows: np.ndarray,
    d2: np.ndarray,
    found: np.ndarray,
) -> None:
    """Fold candidates into the running top-k of ``rows``, dropping rows the
    running list already holds (a row can be found under several sets)."""
    old_d2, old_idx = best_d2[rows], best_idx[rows]
    seen = (found[:, :, None] == old_idx[:, None, :]).any(axis=-1)
    d2 = np.where(seen, np.inf, d2)
    all_d2 = np.concatenate([old_d2, d2], axis=1)
    all_idx = np.concatenate([old_idx, found], axis=1)
    order = np.argsort(all_d2, axis=1, kind="stable")[:, : best_d2.shape[1]]
    best_d2[rows] = np.take_along_axis(all_d2, order, axis=1)
    best_idx[rows] = np.take_along_axis(all_idx, order, axis=1)


def _scan(
    train_num: np.ndarray,
    train_codes: np.ndarray,
    query_num: np.ndarray,
    query_codes: np.ndarray,
    rows: np.ndarray,
    best_d2: np.ndarray,
    best_idx: np.ndarray,
    mismatch_cost: float,
) -> None:
    """Exact top-k of ``rows`` against every training row, in blocks."""
    n, k = train_num.shape[0], best_d2.shape[1]
    block = max(1, _BLOCK_CELLS // n)
    for start in range(0, rows.size, block):
        part = rows[start : start + block]
        d2 = _pair_d2(
            train_num[None], train_codes[None],
            query_num[part, None, :], query_codes[part, None, :], mismatch_cost,
        )
        nearest = np.argpartition(d2, k - 1, axis=1)[:, :k] if k < n else np.argsort(d2, axis=1)
        near_d2 = np.take_along_axis(d2, nearest, axis=1)
        order = np.argsort(near_d2, axis=1, kind="stable")
        best_d2[part] = np.take_along_axis(near_d2, order, axis=1)
        best_idx[part] = np.take_along_axis(nearest, order, axis=1)
