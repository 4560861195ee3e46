"""Ablation benchmarks for three design choices of the reproduction.

Three sweeps (none of them a paper table, but each justifying a default of the
reproduction):

* TabDDPM timesteps — sampling cost grows linearly with the chain length
  while fidelity saturates, justifying the CPU-scale default of ~100 steps
  (the reference implementation uses 1000).
* SMOTE neighbourhood size k — interpolating across a wider neighbourhood
  trades a little fidelity for a little privacy (DCR), but never approaches
  the diffusion model's privacy margin.
* Numerical pre-processing — the Gaussian quantile transform (the paper's
  choice) versus plain standardisation for TVAE on heavy-tailed columns.
"""

import dataclasses

import numpy as np
from repro.experiments.ablations import (
    ablate_diffusion_steps,
    ablate_numerical_transform,
    ablate_smote_k,
)


def _small_ddpm_config(bench_config):
    """A cheaper TabDDPM budget so the timestep sweep stays benchmark-sized."""
    return dataclasses.replace(
        bench_config,
        tabddpm=dataclasses.replace(
            bench_config.tabddpm, epochs=20, hidden_dims=(128,), n_timesteps=100
        ),
    )


def test_ablation_diffusion_steps(benchmark, bench_config, bench_dataset):
    config = _small_ddpm_config(bench_config)

    def run():
        return ablate_diffusion_steps(config, bench_dataset, steps=(10, 50, 100))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [row["timesteps"] for row in rows] == [10.0, 50.0, 100.0]
    for row in rows:
        assert np.isfinite(row["WD"]) and np.isfinite(row["JSD"])
        benchmark.extra_info[f"T={int(row['timesteps'])}_WD"] = round(row["WD"], 4)
        benchmark.extra_info[f"T={int(row['timesteps'])}_DCR"] = round(row["DCR"], 4)
    # More denoising steps should not hurt numerical fidelity materially.
    assert rows[-1]["WD"] <= rows[0]["WD"] + 0.05


def test_ablation_smote_k(benchmark, bench_config, bench_dataset):
    def run():
        return ablate_smote_k(bench_config, bench_dataset, ks=(1, 5, 25))

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert [row["k"] for row in rows] == [1.0, 5.0, 25.0]
    for row in rows:
        benchmark.extra_info[f"k={int(row['k'])}_WD"] = round(row["WD"], 4)
        benchmark.extra_info[f"k={int(row['k'])}_DCR"] = round(row["DCR"], 4)
    # Wider neighbourhoods may not *reduce* the distance to the closest record.
    assert rows[-1]["DCR"] >= rows[0]["DCR"] - 1e-3
    # Fidelity stays tight for every k (SMOTE's defining property).
    assert all(row["WD"] < 0.05 for row in rows)


def test_ablation_numerical_transform(benchmark, bench_config, bench_dataset):
    def run():
        return ablate_numerical_transform(bench_config, bench_dataset)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_transform = {row["transform"]: row for row in rows}
    assert set(by_transform) == {"quantile", "standard"}
    for name, row in by_transform.items():
        benchmark.extra_info[f"{name}_WD"] = round(row["WD"], 4)
        benchmark.extra_info[f"{name}_JSD"] = round(row["JSD"], 4)
    # The quantile transform is the default because it copes with the
    # heavy-tailed workload / byte-size columns at least as well as plain
    # standardisation.
    assert by_transform["quantile"]["WD"] <= by_transform["standard"]["WD"] + 0.02
