"""Ordered target statistics for categorical features.

CatBoost's core trick for categorical columns is *ordered target encoding*:
each row's category is replaced by the running mean of the target over the
rows that precede it in a random permutation, which avoids target leakage
while still injecting target information.  At inference time the full
training-set statistics are used.  This module implements exactly that, with
Laplace-style smoothing towards the global prior.

The encoder works on the ``int32`` codes of a
:class:`~repro.tabular.table.CategoricalColumn`, so no string is decoded,
compared or sorted; plain arrays are factorized once through
:meth:`~repro.tabular.table.CategoricalColumn.from_values`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.tabular.table import ArrayLike, CategoricalColumn
from repro.utils.rng import SeedLike, as_rng
from repro.utils.validation import check_fitted


def _as_column(categories: ArrayLike) -> CategoricalColumn:
    if isinstance(categories, CategoricalColumn):
        return categories
    return CategoricalColumn.from_values(categories)


class OrderedTargetEncoder:
    """Encode one categorical column with (ordered) target statistics.

    Every method takes a :class:`~repro.tabular.table.CategoricalColumn` or
    a 1-D array of category values.  :meth:`fit` is two ``np.bincount``
    calls over the codes, and ``statistics_`` keeps the categories present
    in the fitted rows.  :meth:`transform` gathers from a lookup over the
    column's vocabulary, with the prior for categories the fit never saw.
    :meth:`fit_transform_ordered` stable-sorts the permuted codes, so each
    category's rows sit together in permutation order, and takes one
    ``np.cumsum`` per category: it adds from 0.0 in permutation order, as a
    row-by-row running sum does, so the encodings have the same bits.

    Parameters
    ----------
    smoothing:
        Pseudo-count weight of the global prior mean; larger values shrink
        rare categories harder towards the prior.  With ``smoothing=0`` a
        row with no earlier row of its category is encoded as the prior.
    seed:
        Seed for the encoding permutation used by :meth:`fit_transform_ordered`.
    """

    def __init__(self, smoothing: float = 1.0, *, seed: SeedLike = None) -> None:
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = float(smoothing)
        self._rng = as_rng(seed)
        self.prior_: Optional[float] = None
        self.statistics_: Optional[Dict[str, float]] = None

    # -- fitting -------------------------------------------------------------
    def _fit(self, column: CategoricalColumn, target: ArrayLike) -> Tuple[np.ndarray, np.ndarray]:
        """Fit the full statistics; return the target and per-code row counts."""
        y = np.asarray(target, dtype=np.float64)
        if column.codes.shape[0] != y.shape[0]:
            raise ValueError("categories and target must have the same length")
        if y.size == 0:
            raise ValueError("cannot fit on an empty column")
        self.prior_ = float(y.mean())
        n_codes = len(column.vocab)
        sums = np.bincount(column.codes, weights=y, minlength=n_codes)
        counts = np.bincount(column.codes, minlength=n_codes)
        present = np.flatnonzero(counts)
        smoothed = (sums[present] + self.smoothing * self.prior_) / (
            counts[present] + self.smoothing
        )
        self.statistics_ = {
            column.vocab[code]: value for code, value in zip(present.tolist(), smoothed.tolist())
        }
        return y, counts

    def fit(self, categories: ArrayLike, target: ArrayLike) -> "OrderedTargetEncoder":
        """Fit full-dataset smoothed category means (used at inference time)."""
        self._fit(_as_column(categories), target)
        return self

    def transform(self, categories: ArrayLike) -> np.ndarray:
        """Encode categories with the fitted full-dataset statistics."""
        check_fitted(self, ["statistics_", "prior_"])
        column = _as_column(categories)
        lookup = np.array(
            [self.statistics_.get(value, self.prior_) for value in column.vocab],
            dtype=np.float64,
        )
        return lookup[column.codes]

    def fit_transform_ordered(self, categories: ArrayLike, target: ArrayLike) -> np.ndarray:
        """Fit and return leakage-resistant *ordered* encodings for training rows.

        Each row is encoded using only the target values of rows appearing
        earlier in a random permutation (plus the smoothed prior), exactly as
        CatBoost does during training.
        """
        column = _as_column(categories)
        y, counts = self._fit(column, target)
        n = y.shape[0]
        perm = self._rng.permutation(n)
        # Row ids grouped by category, each group in permutation order.
        order = perm[np.argsort(column.codes[perm], kind="stable")]
        ends = np.cumsum(counts)
        starts = ends - counts
        # Each group holds 0.0 and then its targets shifted by one row, so a
        # cumsum over it gives every row the sum over the earlier rows of its
        # category, added in the order a running sum adds them.
        running = np.empty(n)
        running[1:] = y[order[:-1]]
        running[starts[counts > 0]] = 0.0
        several = counts > 1
        for start, end in zip(starts[several].tolist(), ends[several].tolist()):
            np.cumsum(running[start:end], out=running[start:end])
        seen = np.arange(n) - np.repeat(starts, counts)
        weight = seen + self.smoothing
        encoded = np.empty(n)
        # Zero weight (smoothing=0, no earlier row) leaves the prior.
        encoded[order] = np.divide(
            running + self.smoothing * self.prior_,
            weight,
            out=np.full(n, self.prior_),
            where=weight != 0,
        )
        return encoded
