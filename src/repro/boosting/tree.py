"""Histogram-based regression tree.

Features are pre-binned into at most ``max_bins`` quantile bins (shared across
all trees of an ensemble), so finding the best split of a node reduces to a
cumulative sum over per-bin gradient histograms — the same strategy used by
LightGBM/CatBoost, implemented with vectorised numpy.

Two classic histogram tricks keep node evaluation off the Python interpreter:

* all per-feature histograms of a node are built with **one** ``np.bincount``
  over a flattened ``feature * max_bins + bin`` index instead of a per-feature
  loop, and
* only the **smaller** child of a split is scanned; the sibling histogram is
  derived as ``parent - scanned`` (count histograms are exact under this
  subtraction; gradient histograms may differ from a direct rescan by a few
  ulps, which is the documented tolerance of the optimized path).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_array, check_fitted


class FeatureBinner:
    """Quantile binning of a float feature matrix into small integer codes.

    ``transform`` is a single ``np.searchsorted`` over the stacked (globally
    sorted) bin edges of *all* features: the global insertion rank of a value
    counts every edge below it, and a per-feature cumulative count table
    fitted alongside the edges converts that rank back to "number of
    feature-j edges <= value" — exactly the per-feature ``searchsorted``
    result — without a Python loop over features.

    The rank table is ``(n_features, total_edges + 1)``, i.e. quadratic in
    the feature count, so very wide matrices fall back to the per-feature
    loop instead of allocating it (``_MAX_RANK_TABLE_BYTES``).
    """

    #: rank-table size cap (uint8 bytes) above which fit() skips building it
    _MAX_RANK_TABLE_BYTES = 8_000_000

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = int(max_bins)
        self.bin_edges_: Optional[List[np.ndarray]] = None
        self._stacked_edges_: Optional[np.ndarray] = None
        self._rank_to_bin_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "FeatureBinner":
        X = check_array(X, ndim=2, dtype=np.float64, name="X")
        edges: List[np.ndarray] = []
        for j in range(X.shape[1]):
            col = X[:, j]
            qs = np.quantile(col, np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1])
            edges.append(np.unique(qs))
        self.bin_edges_ = edges
        # Stack all per-feature edges into one sorted array and record, for
        # every global rank r, how many of the first r edges belong to each
        # feature.  Per-feature bins never exceed max_bins - 1 < 256, so the
        # table fits in uint8 and the gathered codes need no cast.
        counts = np.array([e.size for e in edges], dtype=np.intp)
        stacked = np.concatenate(edges) if edges else np.empty(0)
        if len(edges) * (stacked.size + 1) > self._MAX_RANK_TABLE_BYTES:
            self._stacked_edges_ = None
            self._rank_to_bin_ = None
            return self
        order = np.argsort(stacked, kind="stable")
        self._stacked_edges_ = stacked[order]
        feature_of = np.repeat(np.arange(len(edges), dtype=np.intp), counts)[order]
        table = np.zeros((len(edges), stacked.size + 1), dtype=np.uint8)
        table[feature_of, np.arange(stacked.size) + 1] = 1
        np.cumsum(table, axis=1, out=table)
        self._rank_to_bin_ = table
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["bin_edges_"])
        X = check_array(X, ndim=2, dtype=np.float64, name="X")
        if X.shape[1] != len(self.bin_edges_):
            raise ValueError(
                f"expected {len(self.bin_edges_)} features, got {X.shape[1]}"
            )
        if self._rank_to_bin_ is None:
            binned = np.empty(X.shape, dtype=np.uint8)
            for j, edges in enumerate(self.bin_edges_):
                binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
            return binned
        ranks = np.searchsorted(self._stacked_edges_, X, side="right")
        return self._rank_to_bin_[
            np.arange(X.shape[1], dtype=np.intp)[None, :], ranks
        ]

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, feature: int) -> int:
        check_fitted(self, ["bin_edges_"])
        return len(self.bin_edges_[feature]) + 1


@dataclass
class TreeNode:
    """A node of the fitted tree (internal or leaf)."""

    feature: int = -1
    threshold_bin: int = -1
    left: int = -1
    right: int = -1
    value: float = 0.0
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class RegressionTree:
    """Depth-limited regression tree on pre-binned features (squared loss).

    Split gain is the standard variance-reduction criterion written in terms
    of gradient statistics: ``G_L^2/N_L + G_R^2/N_R - G^2/N`` where ``G`` is
    the sum of residuals in a node.
    """

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 20,
        min_gain: float = 1e-12,
        lambda_reg: float = 1.0,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be at least 1")
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.min_gain = float(min_gain)
        self.lambda_reg = float(lambda_reg)
        self.nodes_: Optional[List[TreeNode]] = None

    # -- fitting -------------------------------------------------------------
    def _build_histograms(
        self, flat: np.ndarray, g: np.ndarray, rows: np.ndarray, total_bins: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(feature, bin) gradient and count histograms for ``rows``.

        ``flat`` holds the flattened ``feature * max_bins + bin`` index of every
        cell, so one ``bincount`` over the row-major ravel accumulates all
        feature histograms at once, in the same per-bin summation order as a
        per-feature scan.
        """
        idx = flat[rows].ravel()
        n_features = flat.shape[1]
        grad_hist = np.bincount(idx, weights=np.repeat(g[rows], n_features), minlength=total_bins)
        cnt_hist = np.bincount(idx, minlength=total_bins)
        return grad_hist, cnt_hist

    def fit(
        self,
        binned: np.ndarray,
        residuals: np.ndarray,
        n_bins_per_feature: List[int],
        *,
        flat_index: Optional[np.ndarray] = None,
    ) -> "RegressionTree":
        """Fit to pre-binned features and residual targets.

        ``flat_index`` is an optional precomputed ``binned + feature_offsets``
        int64 matrix (see :meth:`flatten_bins`); the boosting loop passes it so
        the flattened histogram index is built once per ensemble fit rather
        than once per tree.
        """
        self.fit_predict(binned, residuals, n_bins_per_feature, flat_index=flat_index)
        return self

    def fit_predict(
        self,
        binned: np.ndarray,
        residuals: np.ndarray,
        n_bins_per_feature: List[int],
        *,
        flat_index: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Fit like :meth:`fit` and return ``predict(binned)``, bit for bit.

        The fit splits rows with the same ``bin <= threshold`` tests that
        :meth:`predict` routes by, so each leaf's value is scattered onto the
        rows the leaf holds instead of routing them again.  Nothing per-row
        is kept on the tree.
        """
        if binned.ndim != 2:
            raise ValueError("binned feature matrix must be 2-D")
        g = np.asarray(residuals, dtype=np.float64)
        if g.shape[0] != binned.shape[0]:
            raise ValueError("residuals length must match number of rows")
        n_features = binned.shape[1]
        nb = np.asarray(n_bins_per_feature, dtype=np.int64)
        if nb.shape[0] != n_features:
            raise ValueError("n_bins_per_feature length must match number of features")
        max_nb = int(nb.max()) if n_features else 0
        total_bins = n_features * max_nb
        if flat_index is None:
            flat_index = self.flatten_bins(binned, n_bins_per_feature)
        # Split positions beyond a feature's last usable bin are never valid;
        # `bin_pos < nb - 1` also rules out features with fewer than 2 bins.
        bin_pos = np.arange(max_nb)
        splittable = bin_pos[None, :] < (nb[:, None] - 1)

        nodes: List[TreeNode] = []
        lam = self.lambda_reg
        fitted = np.empty(binned.shape[0], dtype=np.float64)

        def leaf_value(grad_sum: float, count: int) -> float:
            return grad_sum / (count + lam)

        root_rows = np.arange(binned.shape[0])
        nodes.append(TreeNode(value=leaf_value(float(g.sum()), g.size), n_samples=g.size))
        root_hists = (
            self._build_histograms(flat_index, g, root_rows, total_bins)
            if binned.shape[0]
            else (np.zeros(total_bins), np.zeros(total_bins, dtype=np.int64))
        )
        # Each stack entry: (node_index, row_indices, depth, grad_hist, cnt_hist).
        stack: List[Tuple[int, np.ndarray, int, np.ndarray, np.ndarray]] = [
            (0, root_rows, 0, root_hists[0], root_hists[1])
        ]

        while stack:
            node_id, rows, depth, grad_hist, cnt_hist = stack.pop()
            node = nodes[node_id]
            grad_sum = float(g[rows].sum())
            count = rows.size
            node.value = leaf_value(grad_sum, count)
            node.n_samples = count
            if depth >= self.max_depth or count < 2 * self.min_samples_leaf or total_bins == 0:
                fitted[rows] = node.value
                continue

            parent_score = grad_sum * grad_sum / (count + lam)
            # Per-feature prefix sums over the (n_features, max_nb) histogram
            # grid; row-wise cumsum reproduces the per-feature accumulation
            # order of a feature-by-feature scan.
            g_left = np.cumsum(grad_hist.reshape(n_features, max_nb), axis=1)
            n_left = np.cumsum(cnt_hist.reshape(n_features, max_nb), axis=1)
            n_right = count - n_left
            valid = (
                splittable
                & (n_left >= self.min_samples_leaf)
                & (n_right >= self.min_samples_leaf)
            )
            g_right = grad_sum - g_left
            gain = (
                g_left * g_left / (n_left + lam)
                + g_right * g_right / (n_right + lam)
                - parent_score
            )
            gain = np.where(valid, gain, -np.inf)
            # Row-major argmax = first feature then first bin achieving the
            # maximum, matching the strict-improvement scan order of a
            # feature-by-feature search.
            best_flat = int(np.argmax(gain))
            if not gain.flat[best_flat] > self.min_gain:
                fitted[rows] = node.value
                continue
            best_feature, best_bin = divmod(best_flat, max_nb)

            mask = binned[rows, best_feature] <= best_bin
            left_rows = rows[mask]
            right_rows = rows[~mask]
            node.feature = best_feature
            node.threshold_bin = best_bin
            node.left = len(nodes)
            nodes.append(TreeNode())
            node.right = len(nodes)
            nodes.append(TreeNode())
            # Scan only the smaller child; the sibling histogram is the
            # parent's minus the scanned one (the LightGBM subtraction trick).
            if left_rows.size <= right_rows.size:
                left_hists = self._build_histograms(flat_index, g, left_rows, total_bins)
                right_hists = (grad_hist - left_hists[0], cnt_hist - left_hists[1])
            else:
                right_hists = self._build_histograms(flat_index, g, right_rows, total_bins)
                left_hists = (grad_hist - right_hists[0], cnt_hist - right_hists[1])
            stack.append((node.left, left_rows, depth + 1, left_hists[0], left_hists[1]))
            stack.append((node.right, right_rows, depth + 1, right_hists[0], right_hists[1]))

        self.nodes_ = nodes
        self._pack_nodes()
        return fitted

    @staticmethod
    def flatten_bins(binned: np.ndarray, n_bins_per_feature: List[int]) -> np.ndarray:
        """Flattened ``feature * max_bins + bin`` index matrix for ``binned``."""
        nb = np.asarray(n_bins_per_feature, dtype=np.int64)
        max_nb = int(nb.max()) if nb.size else 0
        offsets = np.arange(binned.shape[1], dtype=np.int64) * max_nb
        return binned.astype(np.int64) + offsets[None, :]

    def _pack_nodes(self) -> None:
        """Mirror ``nodes_`` into flat arrays so prediction never touches
        Python-level node objects."""
        nodes = self.nodes_
        self._feature = np.array([n.feature for n in nodes], dtype=np.int64)
        self._threshold = np.array([n.threshold_bin for n in nodes], dtype=np.int64)
        self._left = np.array([n.left for n in nodes], dtype=np.int64)
        self._right = np.array([n.right for n in nodes], dtype=np.int64)
        self._value = np.array([n.value for n in nodes], dtype=np.float64)

    # -- prediction -----------------------------------------------------------
    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Predict leaf values for pre-binned features (vectorised routing)."""
        check_fitted(self, ["nodes_"])
        if not hasattr(self, "_feature"):
            self._pack_nodes()  # tolerate hand-assigned ``nodes_``
        n = binned.shape[0]
        out = np.zeros(n, dtype=np.float64)
        node_of_row = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        # Route all rows level by level over the packed node arrays; each
        # iteration advances every row one edge, so the loop count is bounded
        # by the tree depth and no per-node Python objects are touched.
        while active.size:
            current = node_of_row[active]
            feats = self._feature[current]
            is_leaf = feats < 0
            if is_leaf.any():
                out[active[is_leaf]] = self._value[current[is_leaf]]
            keep = ~is_leaf
            active = active[keep]
            if not active.size:
                break
            current = current[keep]
            feats = feats[keep]
            go_left = binned[active, feats] <= self._threshold[current]
            node_of_row[active] = np.where(go_left, self._left[current], self._right[current])
        return out

    @property
    def n_leaves(self) -> int:
        check_fitted(self, ["nodes_"])
        return sum(1 for n in self.nodes_ if n.is_leaf)

    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        check_fitted(self, ["nodes_"])

        def node_depth(idx: int) -> int:
            node = self.nodes_[idx]
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(0)
