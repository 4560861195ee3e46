"""Figure experiments: the data series behind Figs. 1–5 of the paper.

Each function returns plain dictionaries of numpy arrays / floats so the
``repro-experiments`` CLI can print the series (the paper shows them as
plots; the reproduction reports the underlying numbers).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import DatasetBundle, build_dataset
from repro.experiments.table1 import build_model
from repro.metrics.correlation import association_difference, association_matrix
from repro.metrics.distribution import histogram_series, top_k_frequencies
from repro.panda.pipeline import dataset_profile
from repro.scheduler.broker import make_broker
from repro.scheduler.cluster import GridCluster
from repro.scheduler.jobs import jobs_from_table
from repro.scheduler.simulator import GridSimulator
from repro.tabular.table import Table
from repro.utils.rng import derive_seed


def _fit_and_sample(config: ExperimentConfig, data: DatasetBundle, purpose: str) -> Dict[str, Table]:
    """Fit every configured model on the training split and sample one table
    each, seeded per ``purpose`` (the figure) and model."""
    n_synthetic = config.n_synthetic or data.n_train
    tables: Dict[str, Table] = {}
    for name in config.models:
        model = build_model(name, config)
        model.fit(data.train)
        tables[model.name] = model.sample(
            n_synthetic, seed=derive_seed(config.seed, purpose, name)
        )
    return tables


# ---------------------------------------------------------------------------
# Fig. 1 — cumulative data volume over time
# ---------------------------------------------------------------------------
def fig1_data_volume(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
    n_bins: int = 30,
) -> Dict[str, np.ndarray]:
    """Cumulative input data volume (bytes) processed over the window.

    The paper's Fig. 1 shows ATLAS's stored volume growing towards the exabyte
    scale; the reproduction reports the monotone cumulative volume of data
    consumed by the generated job stream, binned over the observation window.
    """
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)
    times = np.asarray(data.table["creationtime"], dtype=np.float64)
    volumes = np.asarray(data.table["inputfilebytes"], dtype=np.float64)
    order = np.argsort(times)
    edges = np.linspace(0.0, config.n_days, n_bins + 1)
    per_bin, _ = np.histogram(times[order], bins=edges, weights=volumes[order])
    cumulative = np.cumsum(per_bin)
    return {
        "day": 0.5 * (edges[:-1] + edges[1:]),
        "bytes_per_bin": per_bin,
        "cumulative_bytes": cumulative,
        "total_petabytes": np.array([cumulative[-1] / 1e15]),
    }


# ---------------------------------------------------------------------------
# Fig. 2 — job-allocation setting: brokerage policies and real-vs-synthetic
# ---------------------------------------------------------------------------
def fig2_scheduler_comparison(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
    synthetic_tables: Optional[Dict[str, Table]] = None,
    brokers: Sequence[str] = ("random", "least_loaded", "data_locality"),
    max_jobs: int = 4000,
    capacity_scale: float = 0.0002,
    time_compression: float = 100.0,
) -> Dict[str, object]:
    """Grid-simulation comparison of brokerage policies (the Fig. 2 setting).

    Runs every brokerage policy on the real (held-out) workload and re-runs
    every policy on each of ``synthetic_tables`` (label → table, e.g. one per
    surrogate), so the real-vs-surrogate gap can be reported at the system
    level.  Every workload simulates the same number of jobs, ``n_jobs``: the
    smallest of ``max_jobs`` and the tables' row counts.  A table with more
    rows contributes a seeded uniform subsample, which spans its whole time
    window (cutting the arrival-sorted jobs would keep only the earliest).

    The experiment-scale traces carry orders of magnitude fewer jobs than the
    production stream (the paper sees ~16k analysis jobs/day), so arrival
    times are compressed by ``time_compression`` and the simulated site
    capacities are scaled down by ``capacity_scale`` to recreate realistic
    contention (non-zero queue waits) at experiment scale.
    """
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)

    def compress(table: Table) -> Table:
        times = np.asarray(table["creationtime"], dtype=np.float64) / max(time_compression, 1e-9)
        return table.with_column("creationtime", times, "numerical")

    synthetic_tables = synthetic_tables or {}
    n_jobs = min([max_jobs, len(data.test)] + [len(table) for table in synthetic_tables.values()])

    def simulate(table: Table, label: str) -> List[Dict[str, object]]:
        if len(table) > n_jobs:
            table = table.sample(n_jobs, seed=derive_seed(config.seed, "fig2-jobs", label))
        jobs = jobs_from_table(compress(table))
        rows: List[Dict[str, object]] = []
        for broker_name in brokers:
            cluster = GridCluster(data.generator.sites, capacity_scale=capacity_scale, min_capacity=1)
            broker = make_broker(
                broker_name, cluster, seed=derive_seed(config.seed, "broker", broker_name)
            )
            result = GridSimulator(cluster, broker).run(jobs)
            row = result.as_row()
            row["workload"] = label
            rows.append(row)
        return rows

    rows = simulate(data.test, "real")
    for label, table in synthetic_tables.items():
        rows.extend(simulate(table, label))
    return {"rows": rows, "n_jobs": n_jobs}


# ---------------------------------------------------------------------------
# Fig. 3 — dataset profile and filtering funnel
# ---------------------------------------------------------------------------
def fig3_dataset_profile(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
) -> Dict[str, object]:
    """Feature profile (Fig. 3a) and filtering funnel (Fig. 3b)."""
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)
    return {
        "profile": dataset_profile(data.table),
        "funnel": data.filter_report.as_rows(),
        "train_rows": data.n_train,
        "test_rows": data.n_test,
    }


# ---------------------------------------------------------------------------
# Fig. 4 — per-feature distributions, ground truth vs every model
# ---------------------------------------------------------------------------
def fig4_distributions(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
    synthetic_tables: Optional[Dict[str, Table]] = None,
    bins: int = 40,
    top_k: int = 5,
) -> Dict[str, object]:
    """Histogram series for numerical features (4a) and top-k category
    frequencies for categorical features (4b), per model.

    When ``synthetic_tables`` is not supplied, the models listed in the config
    are trained here (that makes this experiment as expensive as Table I).
    """
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)
    if synthetic_tables is None:
        synthetic_tables = _fit_and_sample(config, data, "fig4")

    numerical: Dict[str, Dict[str, object]] = {}
    for column in data.train.schema.numerical:
        numerical[column] = {
            model: histogram_series(data.train[column], synth[column], bins=bins)
            for model, synth in synthetic_tables.items()
        }
    categorical: Dict[str, Dict[str, object]] = {}
    for column in data.train.schema.categorical:
        categorical[column] = {
            model: top_k_frequencies(data.train, synth, column, k=top_k)
            for model, synth in synthetic_tables.items()
        }
    return {
        "numerical": numerical,
        "categorical": categorical,
        "models": list(synthetic_tables.keys()),
    }


# ---------------------------------------------------------------------------
# Fig. 5 — association matrices and their differences
# ---------------------------------------------------------------------------
def fig5_correlations(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
    synthetic_tables: Optional[Dict[str, Table]] = None,
) -> Dict[str, object]:
    """Ground-truth association matrix (5a) plus per-model synthetic matrices
    and difference matrices (5b)."""
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)
    if synthetic_tables is None:
        synthetic_tables = _fit_and_sample(config, data, "fig5")

    gt_matrix, columns = association_matrix(data.train)
    per_model = {
        model: association_difference(data.train, synth)
        for model, synth in synthetic_tables.items()
    }
    return {
        "columns": columns,
        "ground_truth": gt_matrix,
        "models": per_model,
    }
