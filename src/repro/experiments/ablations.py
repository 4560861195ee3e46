"""Ablation studies on three design choices of the reproduction.

Three sweeps, each isolating one knob while everything else stays at the
experiment configuration:

* **TabDDPM diffusion steps** — fidelity (WD/JSD) vs. sampling cost as the
  number of timesteps shrinks;
* **SMOTE neighbourhood size** — the fidelity/privacy (DCR) trade-off as the
  interpolation neighbourhood grows;
* **numerical pre-processing** — Gaussian quantile transform (the paper's
  choice) vs. plain standardisation for TVAE: the fidelity (WD/JSD) each
  pre-processing gives on the same training split.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import DatasetBundle, build_dataset
from repro.metrics.report import evaluate_surrogate_data
from repro.models.smote import SMOTESurrogate
from repro.models.tabddpm import TabDDPMSurrogate
from repro.models.tvae import TVAESurrogate
from repro.tabular.transforms import StandardScaler
from repro.utils.rng import derive_seed


def ablate_diffusion_steps(
    config: ExperimentConfig,
    data: DatasetBundle,
    steps: Sequence[int] = (10, 25, 50, 100),
) -> List[Dict[str, float]]:
    """Sweep the number of TabDDPM timesteps."""
    rows: List[Dict[str, float]] = []
    n_synthetic = config.n_synthetic or data.n_train
    for n_steps in steps:
        ddpm_config = replace(config.tabddpm, n_timesteps=int(n_steps))
        model = TabDDPMSurrogate(ddpm_config, seed=derive_seed(config.seed, "ablate-steps", n_steps))
        model.fit(data.train)
        synthetic = model.sample(n_synthetic, seed=derive_seed(config.seed, "ablate-steps-sample", n_steps))
        score = evaluate_surrogate_data(
            f"TabDDPM@{n_steps}", data.train, data.test, synthetic, compute_mlef=False
        )
        rows.append({"timesteps": float(n_steps), **score.as_row()})
    return rows


def ablate_smote_k(
    config: ExperimentConfig,
    data: DatasetBundle,
    ks: Sequence[int] = (1, 3, 5, 11, 25),
) -> List[Dict[str, float]]:
    """Sweep SMOTE's neighbourhood size: larger k trades privacy for smoothing."""
    rows: List[Dict[str, float]] = []
    n_synthetic = config.n_synthetic or data.n_train
    for k in ks:
        model = SMOTESurrogate(k_neighbors=int(k))
        model.fit(data.train)
        synthetic = model.sample(n_synthetic, seed=derive_seed(config.seed, "ablate-smote", k))
        score = evaluate_surrogate_data(
            f"SMOTE@k={k}", data.train, data.test, synthetic, compute_mlef=False
        )
        rows.append({"k": float(k), **score.as_row()})
    return rows


def ablate_numerical_transform(
    config: ExperimentConfig,
    data: DatasetBundle,
) -> List[Dict[str, float]]:
    """Gaussian quantile transform vs plain standardisation for TVAE."""
    rows: List[Dict[str, float]] = []
    n_synthetic = config.n_synthetic or data.n_train

    quantile_model = TVAESurrogate(config.tvae, seed=derive_seed(config.seed, "ablate-tf-q"))
    quantile_model.fit(data.train)
    synthetic = quantile_model.sample(n_synthetic, seed=derive_seed(config.seed, "ablate-tf-q-s"))
    score = evaluate_surrogate_data("TVAE+quantile", data.train, data.test, synthetic, compute_mlef=False)
    rows.append({"transform": "quantile", **score.as_row()})

    standard_model = TVAESurrogate(
        config.tvae,
        seed=derive_seed(config.seed, "ablate-tf-s"),
        numerical_transform_factory=StandardScaler,
    )
    standard_model.fit(data.train)
    synthetic = standard_model.sample(n_synthetic, seed=derive_seed(config.seed, "ablate-tf-s-s"))
    score = evaluate_surrogate_data("TVAE+standard", data.train, data.test, synthetic, compute_mlef=False)
    rows.append({"transform": "standard", **score.as_row()})
    return rows


def run_ablations(
    config: Optional[ExperimentConfig] = None,
    *,
    dataset: Optional[DatasetBundle] = None,
    which: Sequence[str] = ("diffusion_steps", "smote_k", "numerical_transform"),
) -> Dict[str, List[Dict[str, float]]]:
    """Run the requested ablation sweeps."""
    config = config or ExperimentConfig.ci()
    data = dataset or build_dataset(config)
    results: Dict[str, List[Dict[str, float]]] = {}
    if "diffusion_steps" in which:
        results["diffusion_steps"] = ablate_diffusion_steps(config, data)
    if "smote_k" in which:
        results["smote_k"] = ablate_smote_k(config, data)
    if "numerical_transform" in which:
        results["numerical_transform"] = ablate_numerical_transform(config, data)
    return results
