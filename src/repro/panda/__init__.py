"""Synthetic PanDA/ATLAS workload substrate.

The paper trains on 150 days of real PanDA job-submission records, which are
not publicly available.  This sub-package provides the closest synthetic
equivalent: a statistical model of the ATLAS user-analysis job stream with

* a catalog of computing sites with HS23 benchmark scores and heavy-tailed
  (Zipf) popularity (`sites`),
* the DAOD dataset nomenclature — project, production step, data type — plus
  non-DAOD dataset types so the paper's filtering funnel is meaningful
  (`daod`),
* a user population with heterogeneous submission rates (`users`),
* a non-homogeneous arrival process with diurnal, weekly and campaign-burst
  modulation over a configurable observation window (`temporal`),
* a raw-record generator that couples these pieces with realistic
  cross-feature correlations (`generator`), and
* the Fig. 3(b) filtering/derivation pipeline producing the exact nine-column
  table the surrogates are trained on (`pipeline`).

The generator and the funnel are codes-native: categories are drawn and
filtered as integer codes into the catalogs, so the build holds a few
numbers per job and strings only per catalog entry.

Every draw is controlled by a single seed, so the "real" data of this
reproduction is itself reproducible.
"""

from repro.panda.records import (
    CATEGORICAL_FEATURES,
    NUMERICAL_FEATURES,
    PANDA_SCHEMA,
    RAW_SCHEMA,
    JOB_STATUSES,
)
from repro.panda.sites import ComputingSite, SiteCatalog
from repro.panda.daod import DatasetCatalog, parse_dataset_name
from repro.panda.users import UserPopulation
from repro.panda.temporal import ArrivalProcess
from repro.panda.workload import hs23_workload
from repro.panda.generator import PandaWorkloadGenerator, GeneratorConfig
from repro.panda.pipeline import FilterReport, FilteringPipeline

__all__ = [
    "CATEGORICAL_FEATURES",
    "NUMERICAL_FEATURES",
    "PANDA_SCHEMA",
    "RAW_SCHEMA",
    "JOB_STATUSES",
    "ComputingSite",
    "SiteCatalog",
    "DatasetCatalog",
    "parse_dataset_name",
    "UserPopulation",
    "ArrivalProcess",
    "hs23_workload",
    "PandaWorkloadGenerator",
    "GeneratorConfig",
    "FilterReport",
    "FilteringPipeline",
]
