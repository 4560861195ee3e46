"""Evaluation metrics for synthetic tabular data.

The paper evaluates surrogate models with five metric families (Table I):

* **WD** — mean Wasserstein distance between each numerical column of the
  real and synthetic tables (computed on min-max normalised values so columns
  with different units are comparable).
* **JSD** — mean Jensen–Shannon divergence between the category frequency
  distributions of each categorical column.
* **diff-CORR** — mean element-wise L2 distance between the pairwise
  association matrices of the real and synthetic tables (Pearson for
  numerical-numerical, correlation ratio for categorical-numerical,
  Theil's U for categorical-categorical pairs).
* **DCR** — mean distance from each synthetic record to its closest real
  training record (privacy; larger is better).
* **diff-MLEF** — machine-learning efficacy gap: MSE of a boosted-tree
  regressor trained on synthetic data minus the MSE of the same regressor
  trained on real data, both evaluated on held-out real data.

:func:`~repro.metrics.report.evaluate_surrogate_data` bundles all of them into
one :class:`~repro.metrics.report.SurrogateScore` (one Table I row).
"""

from repro.metrics.distribution import (
    DriftConfig,
    DriftEvent,
    DriftMonitor,
    categorical_frequencies,
    chi_squared_statistic,
    histogram_series,
    jensen_shannon_divergence,
    mean_jsd,
    mean_wasserstein,
    top_k_frequencies,
    wasserstein_1d,
)
from repro.metrics.correlation import (
    association_matrix,
    correlation_ratio,
    diff_corr,
    pearson_correlation,
    theils_u,
)
from repro.metrics.privacy import (
    distance_to_closest_record,
    duplicate_fraction,
    nearest_record_distances,
)
from repro.metrics.mlef import machine_learning_efficacy, diff_mlef
from repro.metrics.report import SurrogateScore, evaluate_surrogate_data, format_table

__all__ = [
    "wasserstein_1d",
    "mean_wasserstein",
    "jensen_shannon_divergence",
    "mean_jsd",
    "categorical_frequencies",
    "top_k_frequencies",
    "histogram_series",
    "chi_squared_statistic",
    "DriftConfig",
    "DriftEvent",
    "DriftMonitor",
    "pearson_correlation",
    "correlation_ratio",
    "theils_u",
    "association_matrix",
    "diff_corr",
    "nearest_record_distances",
    "distance_to_closest_record",
    "duplicate_fraction",
    "machine_learning_efficacy",
    "diff_mlef",
    "SurrogateScore",
    "evaluate_surrogate_data",
    "format_table",
]
