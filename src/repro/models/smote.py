"""SMOTE-style interpolation surrogate.

SMOTE (Chawla et al., 2002) was designed for minority-class oversampling; the
paper uses it as a strong non-learning baseline for full-table synthesis:
a synthetic record is created by picking a random training record, finding
its ``k`` nearest neighbours in a mixed-type metric space, choosing one of
them and interpolating numerical features at a random fraction of the way
between the two records.  Categorical features are copied from one of the two
endpoints at random (weighted by the interpolation fraction), which preserves
realistic category combinations.

Because every synthetic record lies on a segment between two real records,
SMOTE attains excellent per-feature and correlation fidelity but the worst
privacy (lowest DCR) — exactly the trade-off the paper reports.

The neighbour graph is built once at fit time by the exact mixed-type kernel
:func:`repro.tabular.neighbors.mixed_knn` on the encoder's numericals and
integer category codes: squared distance is the squared numerical distance
plus ``categorical_weight²`` per mismatched categorical column, the metric of
one-hot blocks scaled by ``categorical_weight / √2``.  The kernel partitions
rows by category codes instead of searching a wide one-hot KD-tree, so fit
stays near-linear in the number of rows.  Rows whose candidate distances
hold a near-tie are re-queried against the one-hot KD-tree, whose traversal
order decides exact ties; the neighbour arrays are therefore identical to a
one-hot search, row for row.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from repro.models.base import Surrogate
from repro.tabular.mixed import MixedEncoder
from repro.tabular.neighbors import mixed_knn
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, as_rng


class SMOTESurrogate(Surrogate):
    """Nearest-neighbour interpolation sampler over the full table.

    Parameters
    ----------
    k_neighbors:
        Number of nearest neighbours considered per seed record (the original
        SMOTE uses 5).
    categorical_weight:
        Weight ``w`` of a categorical mismatch in the neighbour metric: one
        mismatched column adds ``w²`` to the squared distance.  Numericals
        are Gaussian-quantile transformed (range about ±5.2), so at the
        default 1.0 a category flip costs about as much as a one-standard-
        deviation numerical move.
    """

    name = "SMOTE"

    def __init__(self, k_neighbors: int = 5, categorical_weight: float = 1.0) -> None:
        super().__init__()
        if k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")
        self.k_neighbors = int(k_neighbors)
        self.categorical_weight = float(categorical_weight)
        self._encoder: Optional[MixedEncoder] = None
        self._numerical: Optional[np.ndarray] = None
        self._categorical_codes: Optional[np.ndarray] = None
        self._neighbors: Optional[np.ndarray] = None

    # -- fitting ------------------------------------------------------------------
    def fit(self, table: Table) -> "SMOTESurrogate":
        self._mark_fitted(table)
        self._encoder = MixedEncoder()
        self._encoder.fit(table)
        num, cat = self._encoder.transform_codes(table)
        self._numerical = num
        self._categorical_codes = cat

        n = len(table)
        k = min(self.k_neighbors + 1, n)
        scale = self.categorical_weight / np.sqrt(2.0)
        # One extra candidate shows whether the k-th neighbour is tied with
        # the next row, which would make the set itself a tie-break.
        d2, neighbor_idx = mixed_knn(
            num, cat, num, cat, min(k + 1, n), mismatch_cost=2.0 * scale**2
        )
        neighbor_idx = neighbor_idx[:, :k]
        tied = _near_tied(d2)
        if tied.any():
            neighbor_idx[tied] = self._onehot_neighbors(tied, k, scale)
        # Drop the self-match in the first column when present.
        self._neighbors = neighbor_idx[:, 1:] if k > 1 else neighbor_idx
        return self

    def _onehot_neighbors(self, rows: np.ndarray, k: int, scale: float) -> np.ndarray:
        """Neighbours of ``rows`` from a KD-tree over the one-hot embedding.

        The kernel and this tree order exact ties differently (the tree
        breaks them in traversal order), so tied rows take the tree's answer:
        the neighbour arrays then match the one-hot search row for row.
        """
        onehot = [
            np.eye(width)[self._categorical_codes[:, j]] * scale
            for j, width in enumerate(self._encoder.category_cardinalities())
        ]
        search = np.concatenate([self._numerical] + onehot, axis=1)
        _, idx = cKDTree(search).query(search[rows], k=k)
        return np.reshape(idx, (-1, k))

    # -- sampling -----------------------------------------------------------------
    def _sample_exact(self, n: int, *, seed: SeedLike = None) -> Table:
        # Already a single vectorised pass per request, so the relaxed
        # serving mode falls back to this path (see Surrogate._sample_fast).
        self._require_fitted()
        rng = as_rng(seed)
        n_train = self._numerical.shape[0]

        seeds = rng.integers(0, n_train, size=n)
        neighbor_choice = rng.integers(0, self._neighbors.shape[1], size=n)
        partners = self._neighbors[seeds, neighbor_choice]
        gaps = rng.random((n, 1))

        base_num = self._numerical[seeds]
        partner_num = self._numerical[partners]
        synthetic_num = base_num + gaps * (partner_num - base_num)

        base_cat = self._categorical_codes[seeds]
        partner_cat = self._categorical_codes[partners]
        take_partner = rng.random(base_cat.shape) < gaps
        synthetic_cat = np.where(take_partner, partner_cat, base_cat)

        return self._encoder.inverse_transform_codes(synthetic_num, synthetic_cat)


def _near_tied(d2: np.ndarray) -> np.ndarray:
    """Rows whose sorted candidate distances hold a near-tie: two neighbours
    whose squared distances differ by at most 1e-12 relative, the slack two
    summation orders of the same distance can leave."""
    gap = np.diff(d2, axis=1)
    return np.any(gap <= 1e-12 * d2[:, 1:], axis=1)
