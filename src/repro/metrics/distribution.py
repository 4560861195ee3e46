"""Per-feature distributional similarity metrics (paper Fig. 4 and the WD/JSD
columns of Table I), plus windowed drift detection on top of them.

The second half of this module turns the static two-sample statistics
(KS / chi-squared / JSD) into *online* drift detectors: a
:class:`DriftMonitor` holds a reference table, scores every incoming
window column-by-column against it, and fires a :class:`DriftEvent` only
after a statistic stays above its threshold for ``debounce`` consecutive
windows — one transient noisy window never triggers a retrain.  The
detectors are pure functions of (reference, window stream), so detection
is exactly as deterministic as the stream that feeds it; the scenario
engine (:mod:`repro.scenarios`) relies on that to make whole
drift→retrain→promote runs replayable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.tabular.table import CategoricalColumn, Table

#: Values accepted by the categorical statistics: raw string arrays or a
#: dictionary-encoded column (the codes fast path — no string decode).
CategoricalValues = Sequence


def _category_counts(values: CategoricalValues) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(sorted_present_categories, counts, n_rows)`` for either value form.

    The :class:`CategoricalColumn` branch counts via ``np.bincount`` on the
    codes and sorts the vocabulary once; it produces exactly what
    ``np.unique(decoded, return_counts=True)`` would, without materialising
    any per-row strings.
    """
    if isinstance(values, CategoricalColumn):
        vocab = values.vocab_array()
        counts = np.bincount(values.codes, minlength=vocab.size)
        order = np.argsort(vocab, kind="stable")
        vocab, counts = vocab[order], counts[order]
        present = counts > 0
        return vocab[present], counts[present], len(values)
    arr = np.asarray(values).astype(str)
    if arr.size == 0:
        return np.empty(0, dtype="<U1"), np.empty(0, dtype=np.int64), 0
    cats, counts = np.unique(arr, return_counts=True)
    return cats, counts, int(arr.size)


def _categorical_values(table: Table, name: str) -> CategoricalValues:
    """Prefer the dictionary-encoded column; fall back to the decoded view."""
    try:
        return table.categorical_column(name)
    except ValueError:
        return table[name]


def wasserstein_1d(real: np.ndarray, synthetic: np.ndarray, *, normalize: bool = True) -> float:
    """First Wasserstein (earth mover's) distance between two 1-D samples.

    When ``normalize`` is true both samples are min-max scaled by the *real*
    sample's range first, following the convention of the tabular-generation
    literature so that WD values are comparable across features with
    different units.
    """
    # Own copies, normalised and sorted in place.
    a = np.array(real, dtype=np.float64)
    b = np.array(synthetic, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if normalize:
        lo, hi = float(a.min()), float(a.max())
        span = hi - lo if hi > lo else 1.0
        for sample in (a, b):
            sample -= lo
            sample /= span
    a.sort()
    b.sort()
    # Closed form via the quantile functions: integrate |F_a^{-1} - F_b^{-1}|,
    # both evaluated on a merged probability grid.
    size = max(a.size, b.size)
    probs = np.linspace(0.0, 1.0, size, endpoint=False) + 0.5 / size
    gaps = np.empty(size)
    for start in range(0, size, _WD_BLOCK):
        grid = probs[start : start + _WD_BLOCK]
        gaps[start : start + _WD_BLOCK] = _sorted_quantiles(a, grid) - _sorted_quantiles(b, grid)
    return float(np.mean(np.abs(gaps)))


#: Grid points per interpolation step in :func:`wasserstein_1d`.  Small
#: steps keep every temporary small, so the cost stays linear whatever state
#: the allocator is in; from ~14k rows, full-size temporaries can fault in
#: fresh pages on every call and triple the cost.
_WD_BLOCK = 4096


def _sorted_quantiles(values: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """numpy's ``quantile(values, probs)`` for an already-sorted ``values``, in O(n).

    numpy's quantile partitions around every requested index, which is
    quadratic for an n-sized grid.  This applies numpy's ``linear`` rule
    directly — virtual index ``(n-1)·p``, then numpy's ``_lerp`` between the
    neighbouring values — so the result is bit-identical.  Indices past the
    last value interpolate between two copies of it, as numpy's do.
    """
    last = values.size - 1
    virtual = last * probs
    lo = np.minimum(virtual.astype(np.intp), last)  # floor: virtual indices are >= 0
    gamma = virtual - lo
    a, b = values[lo], values[np.minimum(lo + 1, last)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)  # numpy's _lerp
    return out


def categorical_frequencies(
    values: CategoricalValues, categories: Optional[Sequence[str]] = None
) -> Dict[str, float]:
    """Normalised frequency of each category (optionally on a fixed support)."""
    cats, counts, size = _category_counts(values)
    if size == 0:
        raise ValueError("values must be non-empty")
    freq = {str(c): float(n) / size for c, n in zip(cats, counts)}
    if categories is not None:
        freq = {str(c): freq.get(str(c), 0.0) for c in categories}
    return freq


def jensen_shannon_divergence(
    real: CategoricalValues, synthetic: CategoricalValues
) -> float:
    """JSD (base 2, in [0, 1]) between the category distributions of two samples."""
    cats_a, counts_a, n_a = _category_counts(real)
    cats_b, counts_b, n_b = _category_counts(synthetic)
    if n_a == 0 or n_b == 0:
        raise ValueError("values must be non-empty")
    support = np.union1d(cats_a, cats_b)
    p = np.zeros(support.size, dtype=np.float64)
    q = np.zeros(support.size, dtype=np.float64)
    p[np.searchsorted(support, cats_a)] = counts_a / float(n_a)
    q[np.searchsorted(support, cats_b)] = counts_b / float(n_b)
    m = 0.5 * (p + q)

    def _kl(a: np.ndarray, b: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * _kl(p, m) + 0.5 * _kl(q, m)


def mean_wasserstein(
    real: Table, synthetic: Table, columns: Optional[Sequence[str]] = None
) -> Tuple[float, Dict[str, float]]:
    """Mean (and per-column) normalised WD over numerical columns."""
    cols = list(columns) if columns is not None else real.schema.numerical
    per_column = {c: wasserstein_1d(real[c], synthetic[c]) for c in cols}
    mean = float(np.mean(list(per_column.values()))) if per_column else 0.0
    return mean, per_column


def mean_jsd(
    real: Table, synthetic: Table, columns: Optional[Sequence[str]] = None
) -> Tuple[float, Dict[str, float]]:
    """Mean (and per-column) JSD over categorical columns."""
    cols = list(columns) if columns is not None else real.schema.categorical
    per_column = {
        c: jensen_shannon_divergence(
            _categorical_values(real, c), _categorical_values(synthetic, c)
        )
        for c in cols
    }
    mean = float(np.mean(list(per_column.values()))) if per_column else 0.0
    return mean, per_column


def top_k_frequencies(
    real: Table, synthetic: Table, column: str, k: int = 5
) -> List[Dict[str, object]]:
    """Top-``k`` real categories with real vs synthetic frequencies (Fig. 4b)."""
    real_freq = categorical_frequencies(_categorical_values(real, column))
    synth_freq = categorical_frequencies(_categorical_values(synthetic, column))
    top = sorted(real_freq.items(), key=lambda kv: -kv[1])[:k]
    return [
        {
            "category": cat,
            "real": freq,
            "synthetic": synth_freq.get(cat, 0.0),
        }
        for cat, freq in top
    ]


def chi_squared_statistic(
    real: CategoricalValues,
    synthetic: CategoricalValues,
    *,
    normalized: bool = False,
) -> float:
    """Two-sample chi-squared homogeneity statistic over categorical samples.

    Expected counts come from the pooled category frequencies; cells whose
    pooled count is zero are skipped.  With ``normalized=True`` the statistic
    is divided by ``(n_a + n_b) * (k - 1)`` (its Cramér-style upper bound),
    giving a [0, 1] value comparable across window sizes and supports —
    that is the form :class:`DriftMonitor` thresholds.
    """
    cats_a, raw_a, n_a = _category_counts(real)
    cats_b, raw_b, n_b = _category_counts(synthetic)
    if n_a == 0 or n_b == 0:
        raise ValueError("both samples must be non-empty")
    support = np.union1d(cats_a, cats_b)
    counts_a = np.zeros(support.size, dtype=np.float64)
    counts_b = np.zeros(support.size, dtype=np.float64)
    counts_a[np.searchsorted(support, cats_a)] = raw_a
    counts_b[np.searchsorted(support, cats_b)] = raw_b
    pooled = (counts_a + counts_b) / (n_a + n_b)
    expected_a = pooled * n_a
    expected_b = pooled * n_b
    mask = pooled > 0
    stat = float(
        np.sum((counts_a[mask] - expected_a[mask]) ** 2 / expected_a[mask])
        + np.sum((counts_b[mask] - expected_b[mask]) ** 2 / expected_b[mask])
    )
    if normalized:
        dof_bound = (n_a + n_b) * max(int(support.size) - 1, 1)
        stat = stat / dof_bound
    return stat


@dataclass(frozen=True)
class DriftConfig:
    """Thresholds and debounce for the windowed drift detectors.

    numerical_threshold:
        KS-statistic level above which a numerical window counts as
        breaching.  The KS statistic of two same-distribution windows of
        ``w`` rows concentrates around ``~1.5/sqrt(w)``; the default 0.22
        stays quiet for windows of 256+ rows (false-positive bound tested
        over 10k windows) while a half-sigma mean shift clears it.
    categorical_threshold:
        Level for the categorical statistic (JSD in [0, 1] by default, or
        the normalized chi-squared when ``categorical_stat="chi2"``).
    categorical_stat:
        ``"jsd"`` or ``"chi2"`` — which statistic categorical columns use.
    debounce:
        Consecutive breaching windows required before a detector fires.
        Sustained drift fires exactly once; the detector then latches until
        :meth:`DriftMonitor.rebaseline` (post-retrain) resets it.
    min_window:
        Windows smaller than this are ignored (too noisy to score).
    """

    numerical_threshold: float = 0.22
    categorical_threshold: float = 0.05
    categorical_stat: str = "jsd"
    debounce: int = 3
    min_window: int = 32

    def __post_init__(self) -> None:
        if self.categorical_stat not in ("jsd", "chi2"):
            raise ValueError(
                f"categorical_stat must be 'jsd' or 'chi2', got {self.categorical_stat!r}"
            )
        if self.debounce < 1:
            raise ValueError(f"debounce must be at least 1, got {self.debounce}")
        if self.numerical_threshold <= 0 or self.categorical_threshold <= 0:
            raise ValueError("drift thresholds must be positive")


@dataclass(frozen=True)
class DriftEvent:
    """One sustained-drift detection: which column, which statistic, when."""

    column: str
    kind: str  #: "numerical" | "categorical"
    statistic: str  #: "ks" | "jsd" | "chi2"
    value: float  #: the statistic at the window that completed the debounce
    threshold: float
    window_index: int  #: 0-based index of the firing window since (re)baseline

    def as_dict(self) -> Dict[str, object]:
        return {
            "column": self.column,
            "kind": self.kind,
            "statistic": self.statistic,
            "value": round(float(self.value), 12),
            "threshold": self.threshold,
            "window_index": self.window_index,
        }


class _ColumnDetector:
    """Sliding-window drift state of one column (reference vs latest window)."""

    def __init__(
        self, column: str, kind: str, reference: np.ndarray, config: DriftConfig
    ) -> None:
        self.column = column
        self.kind = kind
        self.config = config
        if kind == "numerical":
            self.statistic = "ks"
            self.threshold = config.numerical_threshold
            self._reference = np.sort(np.asarray(reference, dtype=np.float64))
        else:
            self.statistic = config.categorical_stat
            self.threshold = config.categorical_threshold
            # Keep the dictionary-encoded form when given one: every window
            # score then runs on codes without decoding the reference.
            if isinstance(reference, CategoricalColumn):
                self._reference = reference
            else:
                self._reference = np.asarray(reference).astype(str)
        self.streak = 0
        self.fired = False

    def score(self, window: np.ndarray) -> float:
        if self.kind == "numerical":
            values = np.sort(np.asarray(window, dtype=np.float64))
            grid = np.concatenate([self._reference, values])
            cdf_a = np.searchsorted(self._reference, grid, side="right") / self._reference.size
            cdf_b = np.searchsorted(values, grid, side="right") / values.size
            return float(np.max(np.abs(cdf_a - cdf_b)))
        if self.statistic == "jsd":
            return jensen_shannon_divergence(self._reference, window)
        return chi_squared_statistic(self._reference, window, normalized=True)

    def update(self, window: np.ndarray, window_index: int) -> Optional[DriftEvent]:
        """Score one window; returns an event when the debounce completes."""
        value = self.score(window)
        if value <= self.threshold:
            self.streak = 0
            return None
        self.streak += 1
        if self.fired or self.streak < self.config.debounce:
            return None
        self.fired = True  # latched until rebaseline
        return DriftEvent(
            column=self.column,
            kind=self.kind,
            statistic=self.statistic,
            value=value,
            threshold=self.threshold,
            window_index=window_index,
        )


class DriftMonitor:
    """Windowed drift detection over every column of a table stream.

    Built from a *reference* table (the distribution the serving model was
    trained on), the monitor scores each :meth:`observe`-d window per column
    — KS for numericals, JSD or normalized chi-squared for categoricals —
    and emits a :class:`DriftEvent` per column whose statistic stayed above
    threshold for ``debounce`` consecutive windows.  A fired column latches
    (no duplicate events) until :meth:`rebaseline` installs a new reference
    — the post-retrain reset of the drift→retrain→promote loop.

    Degenerate windows are safe by construction: constant columns score 0
    against themselves, unseen categories enter the pooled support, and
    windows shorter than ``min_window`` are skipped entirely.
    """

    def __init__(
        self,
        reference: Table,
        *,
        config: Optional[DriftConfig] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> None:
        self.config = config if config is not None else DriftConfig()
        self._window_index = 0
        self._detectors: Dict[str, _ColumnDetector] = {}
        self._build(reference, columns)

    def _build(self, reference: Table, columns: Optional[Sequence[str]]) -> None:
        schema = reference.schema
        selected = set(columns) if columns is not None else None
        self._columns: List[str] = []
        for name in schema.numerical:
            if selected is None or name in selected:
                self._detectors[name] = _ColumnDetector(
                    name, "numerical", reference[name], self.config
                )
                self._columns.append(name)
        for name in schema.categorical:
            if selected is None or name in selected:
                self._detectors[name] = _ColumnDetector(
                    name, "categorical", reference.categorical_column(name), self.config
                )
                self._columns.append(name)
        if not self._detectors:
            raise ValueError("reference table has no monitorable columns")

    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def window_index(self) -> int:
        """Windows observed since the last (re)baseline."""
        return self._window_index

    @property
    def drifted_columns(self) -> List[str]:
        """Columns whose detector has fired since the last (re)baseline."""
        return [name for name in self._columns if self._detectors[name].fired]

    def observe(self, window: Table) -> List[DriftEvent]:
        """Score one window; returns the drift events that fired on it."""
        if window.n_rows < self.config.min_window:
            return []
        index = self._window_index
        self._window_index += 1
        events = []
        for name in self._columns:
            detector = self._detectors[name]
            if detector.kind == "categorical":
                values = _categorical_values(window, name)
            else:
                values = window[name]
            event = detector.update(values, index)
            if event is not None:
                events.append(event)
        return events

    def rebaseline(self, reference: Table) -> None:
        """Install a new reference (post-retrain) and reset all detectors."""
        columns = self._columns
        self._detectors = {}
        self._window_index = 0
        self._build(reference, columns)


def histogram_series(
    real: np.ndarray, synthetic: np.ndarray, *, bins: int = 50
) -> Dict[str, np.ndarray]:
    """Aligned density histograms of a numerical feature (Fig. 4a series).

    Bin edges are derived from the union of both samples so the real and
    synthetic series are directly comparable.
    """
    a = np.asarray(real, dtype=np.float64)
    b = np.asarray(synthetic, dtype=np.float64)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi <= lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    real_density, _ = np.histogram(a, bins=edges, density=True)
    synth_density, _ = np.histogram(b, bins=edges, density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return {"centers": centers, "real": real_density, "synthetic": synth_density}
