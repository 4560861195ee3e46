"""Synthetic PanDA raw-record generator.

:class:`PandaWorkloadGenerator` couples the site catalog, dataset catalog,
user population and arrival process into a single generator of raw job
records.  The generated table has the columns of a (simplified) PanDA dump
*before* filtering — including production jobs, non-DAOD inputs and transient
job statuses — so the Fig. 3(b) filtering funnel operates on realistic input.

The categorical columns are drawn as integer codes into their catalogs
(task types, job statuses, sites, datasets), and per-job numbers that depend
on a category (site reliability, the data type's CPU cost, the project's
preferred site) are computed once per catalog entry and gathered through
the codes.  Each column is built once with
:meth:`~repro.tabular.table.CategoricalColumn.from_codes`, so no per-job
string exists: the raw table holds 56 bytes per job.

Cross-feature structure built into the generator (and therefore learnable by
the surrogates):

* site choice is biased towards sites in the same "region" as the dataset's
  preferred storage, so ``computingsite`` correlates with ``project``;
* ``inputfilebytes`` is proportional to ``ninputdatafiles`` with a
  datatype-dependent bytes-per-file scale;
* ``workload`` grows with the input volume, with a datatype-dependent cost
  factor and site-dependent HS23 weighting;
* failure probability increases with workload and decreases with site
  reliability, so ``jobstatus`` correlates with both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.panda import workload as wl
from repro.panda.daod import DatasetCatalog
from repro.panda.records import JOB_STATUSES, RAW_SCHEMA, TASK_TYPES, TRANSIENT_STATUSES
from repro.panda.sites import SiteCatalog
from repro.panda.temporal import ArrivalProcess
from repro.panda.users import UserPopulation
from repro.tabular.table import CategoricalColumn, Table
from repro.utils.rng import SeedLike, as_rng, derive_seed

#: Every raw job status; ``jobstatus`` is drawn as codes into this catalog.
_STATUSES = JOB_STATUSES + TRANSIENT_STATUSES


@dataclass
class GeneratorConfig:
    """Configuration of the synthetic PanDA stream.

    The defaults are scaled so the default experiment finishes in minutes on a
    laptop; the paper-scale stream (about 2.4 M raw records over 150 days) is
    reachable by raising ``n_jobs``.
    """

    n_jobs: int = 50_000
    n_days: float = 150.0
    n_sites: int = 40
    n_datasets: int = 2_000
    n_users: int = 400
    analysis_fraction: float = 0.72
    daod_fraction: float = 0.80
    transient_fraction: float = 0.06
    seed: Optional[int] = 7

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError("n_jobs must be positive")
        if not 0.0 < self.analysis_fraction <= 1.0:
            raise ValueError("analysis_fraction must be in (0, 1]")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise ValueError("transient_fraction must be in [0, 1)")


class PandaWorkloadGenerator:
    """Generate raw PanDA-like job records."""

    def __init__(self, config: Optional[GeneratorConfig] = None) -> None:
        self.config = config or GeneratorConfig()
        seed = self.config.seed
        self.sites = SiteCatalog.default(self.config.n_sites, seed=derive_seed(seed, "sites"))
        self.datasets = DatasetCatalog(
            self.config.n_datasets,
            daod_fraction=self.config.daod_fraction,
            seed=derive_seed(seed, "datasets"),
        )
        self.users = UserPopulation.default(
            self.config.n_users, seed=derive_seed(seed, "users")
        )
        self.arrivals = ArrivalProcess.default(
            self.config.n_days, seed=derive_seed(seed, "arrivals")
        )

    # -- generation -------------------------------------------------------------
    def generate_raw(self, n_jobs: Optional[int] = None, *, seed: SeedLike = None) -> Table:
        """Generate a raw-record table with ``n_jobs`` rows (pre-filtering)."""
        cfg = self.config
        n = int(n_jobs if n_jobs is not None else cfg.n_jobs)
        rng = as_rng(seed if seed is not None else derive_seed(cfg.seed, "records"))

        creation = self.arrivals.sample_times(n, seed=rng)
        # No column uses the submitting user yet; the draw keeps the stream.
        self.users.sample_users(n, rng)
        dataset_idx = self.datasets.sample_indices(n, rng)

        # Per-dataset numbers, gathered through the dataset codes.
        ds_files = self.datasets.n_files_array[dataset_idx]
        ds_bytes = self.datasets.total_bytes_array[dataset_idx]

        # A user-analysis job typically reads a subset of the dataset's files.
        read_fraction = np.clip(rng.beta(2.0, 3.0, size=n), 0.02, 1.0)
        n_files = np.maximum(1, np.rint(ds_files * read_fraction)).astype(np.float64)
        bytes_per_file = ds_bytes / np.maximum(ds_files, 1.0)
        input_bytes = n_files * bytes_per_file * rng.lognormal(0.0, 0.15, size=n)

        # Task type: user analysis vs centralized production.
        is_analysis = rng.random(n) < cfg.analysis_fraction
        tasktype = np.where(
            is_analysis, TASK_TYPES.index("analysis"), TASK_TYPES.index("production")
        )

        # Site choice with mild project/region affinity: hash the project onto a
        # preferred site and boost its probability.  The hash must be stable
        # across processes (builtin ``hash`` is salted per interpreter, which
        # would break cross-run replay determinism), so it goes through the
        # SHA-256-backed ``derive_seed``, once per distinct project.
        site = self.sites.sample_indices(n, rng)
        projects, project_of = np.unique(self.datasets.project_array, return_inverse=True)
        preferred = np.array(
            [derive_seed(0, "project-affinity", p) % len(self.sites) for p in projects],
            dtype=np.intp,
        )
        affinity = rng.random(n) < 0.25
        site = np.where(affinity, preferred[project_of][dataset_idx], site)

        core_count = wl.sample_core_counts(n, rng)
        datatype = CategoricalColumn.from_codes(dataset_idx, self.datasets.datatype_array)
        cpu_hours = wl.sample_cpu_time_hours(n_files, input_bytes, datatype, rng)

        # Job status: failure probability rises with CPU time, falls with site
        # reliability; a small fraction of records is still in a transient state.
        reliability = self.sites.reliability_of(self.sites.names)[site]
        log_hours = np.log1p(cpu_hours)
        fail_prob = np.clip((1.0 - reliability) * (0.6 + 0.25 * log_hours), 0.0, 0.9)
        u = rng.random(n)
        code = {label: i for i, label in enumerate(_STATUSES)}
        status = np.full(n, code["finished"], dtype=np.int8)
        status[u < fail_prob] = code["failed"]
        status[(u >= fail_prob) & (u < fail_prob + 0.03)] = code["cancelled"]
        status[(u >= fail_prob + 0.03) & (u < fail_prob + 0.05)] = code["closed"]
        # The transient statuses follow the final ones in ``_STATUSES``.
        transient = rng.random(n) < cfg.transient_fraction
        status[transient] = len(JOB_STATUSES) + rng.choice(
            len(TRANSIENT_STATUSES), size=int(transient.sum())
        )

        data: Dict[str, object] = {
            "creationtime": creation,
            "ninputdatafiles": n_files,
            "inputfilebytes": input_bytes,
            "corecount": core_count,
            "cputime_hours": cpu_hours,
            "tasktype": CategoricalColumn.from_codes(tasktype, TASK_TYPES),
            "jobstatus": CategoricalColumn.from_codes(status, _STATUSES),
            "computingsite": CategoricalColumn.from_codes(site, self.sites.names),
            "inputdatasetname": CategoricalColumn.from_codes(dataset_idx, self.datasets.name_array),
        }
        return Table(data, RAW_SCHEMA)

    def generate_training_table(
        self, n_jobs: Optional[int] = None, *, seed: SeedLike = None
    ) -> Table:
        """Convenience: generate raw records and run the full filtering pipeline."""
        from repro.panda.pipeline import FilteringPipeline

        raw = self.generate_raw(n_jobs, seed=seed)
        pipeline = FilteringPipeline(self.sites)
        filtered, _report = pipeline.run(raw)
        return filtered
