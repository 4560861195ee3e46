"""Experiment harness: one module per paper table/figure.

Every experiment follows the same pattern: build the synthetic PanDA dataset
(the stand-in for the paper's real 150-day trace), run the relevant models or
analyses, and return plain dictionaries / arrays that the ``repro-experiments``
CLI prints as the rows or series of the corresponding paper artefact.

Experiments
-----------
* :func:`~repro.experiments.table1.run_table1` — Table I (five metrics × four
  models, plus the copula extra baseline).
* :func:`~repro.experiments.figures.fig1_data_volume` — Fig. 1 (cumulative
  data volume over time).
* :func:`~repro.experiments.figures.fig2_scheduler_comparison` — Fig. 2
  setting (brokerage policies on the same workload; real vs synthetic).
* :func:`~repro.experiments.figures.fig3_dataset_profile` — Fig. 3 (feature
  profile and filtering funnel).
* :func:`~repro.experiments.figures.fig4_distributions` — Fig. 4 (per-feature
  distributions, real vs every model).
* :func:`~repro.experiments.figures.fig5_correlations` — Fig. 5 (association
  matrices and their differences).
* :func:`~repro.experiments.ablations.run_ablations` — design-choice sweeps
  (diffusion steps, SMOTE k, numerical transform).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import DatasetBundle, build_dataset
from repro.experiments.table1 import run_table1
from repro.experiments.figures import (
    fig1_data_volume,
    fig2_scheduler_comparison,
    fig3_dataset_profile,
    fig4_distributions,
    fig5_correlations,
)
from repro.experiments.ablations import run_ablations

__all__ = [
    "ExperimentConfig",
    "DatasetBundle",
    "build_dataset",
    "run_table1",
    "fig1_data_volume",
    "fig2_scheduler_comparison",
    "fig3_dataset_profile",
    "fig4_distributions",
    "fig5_correlations",
    "run_ablations",
]
