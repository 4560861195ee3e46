"""Experiment configuration.

One dataclass controls dataset size, model training budgets and which models
run, with three presets:

* ``ExperimentConfig.ci()`` — minutes-scale, used by the test suite and the
  default benchmark run;
* ``ExperimentConfig.default()`` — laptop-scale (tens of minutes), what
  ``repro-experiments --preset default`` runs;
* ``ExperimentConfig.paper_scale()`` — the paper's row counts and training
  budget (hours on CPU); provided for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.models.ctabgan import CTABGANConfig
from repro.models.tabddpm import TabDDPMConfig
from repro.models.tvae import TVAEConfig
from repro.metrics.mlef import MLEFConfig


@dataclass
class ExperimentConfig:
    """Controls the shared dataset and per-model training budgets."""

    #: Raw records generated before filtering (paper: ~2.4 M).
    n_raw_jobs: int = 60_000
    #: Observation window length in days (paper: 150).
    n_days: float = 150.0
    #: Test fraction of the filtered table (paper: 20%).
    test_fraction: float = 0.2
    #: Number of synthetic rows sampled per model (defaults to train size).
    n_synthetic: Optional[int] = None
    #: Models to evaluate, by registry name.
    models: Sequence[str] = ("tvae", "ctabgan+", "smote", "tabddpm")
    #: Global seed.
    seed: int = 7

    tvae: TVAEConfig = field(default_factory=TVAEConfig)
    ctabgan: CTABGANConfig = field(default_factory=CTABGANConfig)
    tabddpm: TabDDPMConfig = field(default_factory=TabDDPMConfig)
    smote_k: int = 5
    mlef: MLEFConfig = field(default_factory=MLEFConfig)

    # -- presets -----------------------------------------------------------------
    @classmethod
    def ci(cls) -> "ExperimentConfig":
        """Small enough for unit tests and quick benchmark runs."""
        return cls(
            n_raw_jobs=6_000,
            n_synthetic=1_500,
            tvae=TVAEConfig(latent_dim=16, hidden_dims=(64,), epochs=8, batch_size=256),
            ctabgan=CTABGANConfig(
                noise_dim=32, generator_dims=(64,), discriminator_dims=(64,),
                gmm_components=4, epochs=8, batch_size=256,
            ),
            tabddpm=TabDDPMConfig(
                n_timesteps=100, hidden_dims=(256, 256), time_embedding_dim=64,
                epochs=60, batch_size=256, learning_rate=1e-3,
            ),
            mlef=MLEFConfig(n_estimators=40, learning_rate=0.3, max_depth=6),
        )

    @classmethod
    def default(cls) -> "ExperimentConfig":
        """Laptop-scale configuration (``repro-experiments --preset default``)."""
        return cls(
            n_raw_jobs=60_000,
            tvae=TVAEConfig(epochs=30),
            ctabgan=CTABGANConfig(epochs=30),
            tabddpm=TabDDPMConfig(epochs=40),
        )

    @classmethod
    def paper_scale(cls) -> "ExperimentConfig":
        """The paper's scale: millions of rows, 30k training epochs, CatBoost
        settings of depth 10 / lr 1.0 / 200 iterations."""
        return cls(
            n_raw_jobs=2_400_000,
            tvae=TVAEConfig(epochs=30_000 // 100),  # epochs over full data ≈ paper steps
            ctabgan=CTABGANConfig(epochs=300),
            tabddpm=TabDDPMConfig(n_timesteps=1000, epochs=300),
            mlef=MLEFConfig.paper(),
        )

    def with_models(self, models: Sequence[str]) -> "ExperimentConfig":
        """Return a copy restricted to the given models."""
        return replace(self, models=tuple(models))
