"""Workload derivation.

The paper defines a job's ``workload`` as the product of the number of cores,
the per-core processing power of the assigned site (from the HS23 benchmark)
and the CPU time used.  This module provides that conversion plus helpers to
sample realistic CPU times given the input size and data type.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.tabular.table import CategoricalColumn


def hs23_workload(
    core_count: np.ndarray,
    cpu_time_hours: np.ndarray,
    hs23_per_core: np.ndarray,
) -> np.ndarray:
    """Workload = cores x HS23-per-core x CPU hours (HS23-weighted core-hours)."""
    cores = np.asarray(core_count, dtype=np.float64)
    hours = np.asarray(cpu_time_hours, dtype=np.float64)
    power = np.asarray(hs23_per_core, dtype=np.float64)
    if cores.shape != hours.shape or cores.shape != power.shape:
        raise ValueError("core_count, cpu_time_hours and hs23_per_core must align")
    if (cores < 0).any() or (hours < 0).any() or (power < 0).any():
        raise ValueError("workload inputs must be non-negative")
    return cores * power * hours


def _cpu_cost_factor(datatypes: Sequence[str]) -> np.ndarray:
    """CPU seconds per input GB of each data type, relative to ``DAOD_PHYS``."""
    dtypes = np.asarray(datatypes, dtype=str)
    factor = np.ones(dtypes.shape[0])
    factor[np.char.startswith(dtypes, "DAOD_PHYSLITE")] = 0.35
    factor[dtypes == "DAOD_PHYS"] = 1.0
    factor[np.char.startswith(dtypes, "DAOD_JETM")] = 1.6
    factor[np.char.startswith(dtypes, "DAOD_EXOT")] = 1.4
    factor[np.char.startswith(dtypes, "DAOD_HIGG")] = 1.3
    factor[~np.char.startswith(dtypes, "DAOD")] = 2.5
    return factor


def sample_cpu_time_hours(
    n_files: np.ndarray,
    file_bytes: np.ndarray,
    datatype: Union[Sequence[str], CategoricalColumn],
    rng: np.random.Generator,
    *,
    base_seconds_per_gb: float = 900.0,
) -> np.ndarray:
    """Sample per-job CPU time as a noisy function of the input volume.

    CPU time grows roughly linearly with the number of gigabytes read,
    modulated by a data-type efficiency factor (PHYSLITE is cheap to process,
    full PHYS and non-derived formats are heavier), with a multiplicative
    log-normal noise term capturing algorithmic variety between analyses.
    This produces the multi-peaked workload distribution visible in the
    paper's Fig. 4(a).

    ``datatype`` gives one data type per job, as strings or as a
    :class:`~repro.tabular.table.CategoricalColumn`; the factor is computed
    once per vocabulary entry and gathered through the codes.
    """
    nf = np.asarray(n_files, dtype=np.float64)
    fb = np.asarray(file_bytes, dtype=np.float64)
    if not isinstance(datatype, CategoricalColumn):
        datatype = CategoricalColumn.from_values(datatype)
    gigabytes = fb / 1e9
    factor = _cpu_cost_factor(datatype.vocab)[datatype.codes]

    noise = rng.lognormal(mean=0.0, sigma=0.6, size=len(datatype))
    seconds = base_seconds_per_gb * gigabytes * factor * noise
    # Per-file overhead (staging, metadata) keeps tiny jobs from being free.
    seconds += 30.0 * nf * rng.lognormal(0.0, 0.3, size=len(datatype))
    return seconds / 3600.0


def sample_core_counts(n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample per-job core counts.

    User-analysis payloads are dominated by single-core and 8-core
    (multi-core slot) configurations.
    """
    choices = np.array([1, 1, 1, 2, 4, 8, 8, 8, 16])
    return rng.choice(choices, size=n).astype(np.float64)
