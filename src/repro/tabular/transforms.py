"""Invertible numerical column transforms.

The paper normalises numerical features with a Gaussian quantile
transformation (scikit-learn's ``QuantileTransformer(output_distribution=
"normal")``).  That transform — plus the usual standard / min-max scalers and
a log transform for heavy-tailed byte counts — is re-implemented here on top
of numpy/scipy, with strict ``transform``/``inverse_transform`` round-trip
behaviour so generative models can be trained in a well-conditioned space and
still emit records in original units.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
from scipy import special

from repro.utils.validation import check_array, check_fitted


class ColumnTransform:
    """Interface for invertible 1-D column transforms."""

    def fit(self, values: np.ndarray) -> "ColumnTransform":
        raise NotImplementedError

    def transform(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def fit_transform(self, values: np.ndarray) -> np.ndarray:
        return self.fit(values).transform(values)


class IdentityTransform(ColumnTransform):
    """No-op transform (useful as a pipeline placeholder)."""

    def fit(self, values: np.ndarray) -> "IdentityTransform":
        check_array(values, ndim=1, dtype=np.float64, name="values")
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).copy()

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64).copy()


class StandardScaler(ColumnTransform):
    """Zero-mean, unit-variance scaling."""

    def __init__(self) -> None:
        self.mean_: Optional[float] = None
        self.std_: Optional[float] = None

    def fit(self, values: np.ndarray) -> "StandardScaler":
        arr = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
        self.mean_ = float(arr.mean())
        std = float(arr.std())
        self.std_ = std if std > 0 else 1.0
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["mean_", "std_"])
        arr = np.asarray(values, dtype=np.float64)
        return (arr - self.mean_) / self.std_

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["mean_", "std_"])
        arr = np.asarray(values, dtype=np.float64)
        return arr * self.std_ + self.mean_


class MinMaxScaler(ColumnTransform):
    """Scale values into ``[feature_min, feature_max]`` (default [0, 1])."""

    def __init__(self, feature_range: tuple[float, float] = (0.0, 1.0)):
        lo, hi = feature_range
        if not hi > lo:
            raise ValueError("feature_range must be an increasing pair")
        self.feature_range = (float(lo), float(hi))
        self.data_min_: Optional[float] = None
        self.data_max_: Optional[float] = None

    def fit(self, values: np.ndarray) -> "MinMaxScaler":
        arr = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
        self.data_min_ = float(arr.min())
        self.data_max_ = float(arr.max())
        return self

    def _span(self) -> float:
        span = self.data_max_ - self.data_min_
        return span if span > 0 else 1.0

    def transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["data_min_", "data_max_"])
        arr = np.asarray(values, dtype=np.float64)
        lo, hi = self.feature_range
        unit = (arr - self.data_min_) / self._span()
        return unit * (hi - lo) + lo

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["data_min_", "data_max_"])
        arr = np.asarray(values, dtype=np.float64)
        lo, hi = self.feature_range
        unit = (arr - lo) / (hi - lo)
        return unit * self._span() + self.data_min_


class LogTransform(ColumnTransform):
    """``log1p``-style transform with an automatic offset for non-positive data.

    Heavy-tailed columns such as ``inputfilebytes`` become approximately
    Gaussian after a log transform, which stabilises both neural training and
    tree splits.
    """

    def __init__(self, base_offset: float = 1.0):
        self.base_offset = float(base_offset)
        self.offset_: Optional[float] = None

    def fit(self, values: np.ndarray) -> "LogTransform":
        arr = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
        min_val = float(arr.min())
        # Shift so the smallest value maps to base_offset (> 0) before the log.
        self.offset_ = self.base_offset - min_val if min_val < self.base_offset else 0.0
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["offset_"])
        arr = np.asarray(values, dtype=np.float64)
        return np.log(arr + self.offset_ + 1e-12)

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["offset_"])
        arr = np.asarray(values, dtype=np.float64)
        return np.exp(arr) - self.offset_ - 1e-12


class GaussianQuantileTransform(ColumnTransform):
    """Map a column onto a standard normal via its empirical CDF.

    This is the transform the paper uses ("Gaussian quantile transformation
    from the scikit-learn library").  The forward direction interpolates the
    empirical CDF at ``n_quantiles`` reference points and applies the probit
    function; the inverse applies the normal CDF and interpolates the quantile
    function.  Values outside the training range are clipped to the range, as
    scikit-learn does.

    ``fit`` always places the reference probabilities on the uniform grid
    ``np.linspace(0, 1, n_q)``; :meth:`inverse_transform` relies on that to
    find each probability's knot interval arithmetically instead of by
    binary search (see :func:`_interp_uniform_grid`).
    """

    #: Clip probabilities away from {0, 1} to keep the probit finite.
    _EPS = 1e-7

    def __init__(self, n_quantiles: int = 1000):
        if n_quantiles < 2:
            raise ValueError("n_quantiles must be at least 2")
        self.n_quantiles = int(n_quantiles)
        self.quantiles_: Optional[np.ndarray] = None
        self.references_: Optional[np.ndarray] = None

    def fit(self, values: np.ndarray) -> "GaussianQuantileTransform":
        arr = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
        n_q = min(self.n_quantiles, arr.size)
        self.references_ = np.linspace(0.0, 1.0, n_q)
        self.quantiles_ = np.quantile(arr, self.references_)
        # Enforce monotonicity in the presence of numerical noise / ties.
        self.quantiles_ = np.maximum.accumulate(self.quantiles_)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["quantiles_", "references_"])
        arr = np.asarray(values, dtype=np.float64)
        arr = np.clip(arr, self.quantiles_[0], self.quantiles_[-1])
        # Empirical CDF via interpolation of (quantile -> reference).  Averaging
        # the forward and reverse interpolations handles plateaus from ties the
        # same way scikit-learn does.
        forward = np.interp(arr, self.quantiles_, self.references_)
        backward = 1.0 - np.interp(
            -arr, -self.quantiles_[::-1], (1.0 - self.references_)[::-1]
        )
        # Degenerate quantile tables — knots separated by subnormal gaps —
        # overflow np.interp's slope to ±inf and can leave NaN at the knots
        # (inf * 0).  Repair those entries from the nearest knot's reference
        # before combining, which also keeps the sum below warning-free.
        bad = ~(np.isfinite(forward) & np.isfinite(backward))
        if bad.any():
            idx = np.searchsorted(self.quantiles_, arr[bad], side="left")
            repaired = self.references_[np.clip(idx, 0, self.references_.size - 1)]
            forward[bad] = repaired
            backward[bad] = repaired
        prob = 0.5 * (forward + backward)
        prob = np.clip(prob, self._EPS, 1.0 - self._EPS)
        return special.ndtri(prob)

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        check_fitted(self, ["quantiles_", "references_"])
        arr = np.asarray(values, dtype=np.float64)
        prob = special.ndtr(arr)
        prob = np.clip(prob, 0.0, 1.0)
        return _interp_uniform_grid(prob, self.references_, self.quantiles_)


def _interp_uniform_grid(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp)`` bit for bit, with the bracket found in O(1).

    Preconditions: ``xp`` is ``np.linspace(0, 1, xp.size)`` and every ``x``
    lies in ``[0, 1]`` or is NaN.  On that grid the interval of ``x`` is
    ``floor(x * (n - 1))`` up to one rounding step, so one comparison each
    way corrects it to numpy's bracket (the last knot ``<= x``).  The value
    then follows numpy's formula and its special cases: NaN in gives the
    same NaN back, a knot gives its own ``fp`` (which also covers the right
    edge), and a NaN from the slope between knots is retried from the right
    knot, then replaced by the knot value on a flat interval.  Grids of
    fewer than two points, and scalar ``x``, keep ``np.interp``.
    """
    n = xp.size
    if n < 2 or np.ndim(x) == 0:
        return np.interp(x, xp, fp)
    with np.errstate(all="ignore"):
        # fmin maps NaN to the last interval, so the cast stays defined.
        guess = np.fmin(x * (n - 1), n - 2).astype(np.intp)
        j = guess - (xp[guess] > x) + (xp[guess + 1] <= x)
        # A trailing zero slope pads the right edge, where x equals the knot.
        slopes = np.append(np.diff(fp) / np.diff(xp), 0.0)
        x0 = xp[j]
        f0 = fp[j]
        out = slopes[j] * (x - x0) + f0
        np.copyto(out, f0, where=x == x0)
        nan = np.isnan(out)
        if nan.any():
            nan_in = np.isnan(x)
            out[nan_in] = x[nan_in]
            retry = nan & ~nan_in & (x != x0)
            k = j[retry]
            again = slopes[k] * (x[retry] - xp[k + 1]) + fp[k + 1]
            flat = np.isnan(again) & (fp[k] == fp[k + 1])
            out[retry] = np.where(flat, fp[k], again)
    return out


class TransformPipeline(ColumnTransform):
    """Compose several column transforms, applied left to right."""

    def __init__(self, steps: Sequence[ColumnTransform]):
        if not steps:
            raise ValueError("TransformPipeline requires at least one step")
        self.steps: List[ColumnTransform] = list(steps)

    def fit(self, values: np.ndarray) -> "TransformPipeline":
        current = np.asarray(values, dtype=np.float64)
        for step in self.steps:
            current = step.fit_transform(current)
        return self

    def transform(self, values: np.ndarray) -> np.ndarray:
        current = np.asarray(values, dtype=np.float64)
        for step in self.steps:
            current = step.transform(current)
        return current

    def inverse_transform(self, values: np.ndarray) -> np.ndarray:
        current = np.asarray(values, dtype=np.float64)
        for step in reversed(self.steps):
            current = step.inverse_transform(current)
        return current
