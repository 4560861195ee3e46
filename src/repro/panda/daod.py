"""ATLAS dataset nomenclature and the DAOD dataset catalog.

ATLAS dataset names follow a dotted convention
``project.runNumber.streamName.prodStep.dataType.version`` (ATLAS Dataset
Nomenclature, ref. [11] of the paper).  The paper splits the name of each
job's input dataset into its ``project``, ``prodstep`` and ``datatype``
fields and keeps only jobs whose datatype is a DAOD flavour.

The catalog below generates a population of datasets with realistic,
imbalanced frequencies across projects (Monte-Carlo campaigns vs. data-taking
periods), production steps and data types — including non-DAOD types so the
filtering funnel removes a realistic fraction of raw records — plus
per-dataset file counts and byte sizes with heavy tails.

Jobs reference datasets by catalog index, so a raw table's
``inputdatasetname`` vocabulary holds at most ``n_datasets`` names; the
funnel parses each of them once with :func:`parse_dataset_name`, never a
name per job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.tabular.encoding import FrequencyTable
from repro.utils.rng import SeedLike, as_rng

#: MC campaigns and data-taking projects with rough relative popularity.
DEFAULT_PROJECTS: Sequence[Tuple[str, float]] = (
    ("mc23_13p6TeV", 0.33),
    ("mc20_13TeV", 0.22),
    ("data22_13p6TeV", 0.16),
    ("data18_13TeV", 0.10),
    ("mc16_13TeV", 0.08),
    ("data23_13p6TeV", 0.06),
    ("mc21_13p6TeV", 0.03),
    ("data17_13TeV", 0.02),
)

#: Production steps.  User analysis overwhelmingly reads `deriv` outputs.
DEFAULT_PRODSTEPS: Sequence[Tuple[str, float]] = (
    ("deriv", 0.78),
    ("merge", 0.12),
    ("recon", 0.06),
    ("simul", 0.04),
)

#: DAOD data types (kept by the filter), with PHYS/PHYSLITE dominating.
DAOD_DATATYPES: Sequence[Tuple[str, float]] = (
    ("DAOD_PHYS", 0.42),
    ("DAOD_PHYSLITE", 0.28),
    ("DAOD_JETM1", 0.07),
    ("DAOD_EXOT2", 0.05),
    ("DAOD_HIGG1D1", 0.05),
    ("DAOD_SUSY5", 0.04),
    ("DAOD_TOPQ1", 0.04),
    ("DAOD_STDM4", 0.03),
    ("DAOD_EGAM1", 0.02),
)

#: Non-DAOD data types present in raw records and removed by the filter.
NON_DAOD_DATATYPES: Sequence[Tuple[str, float]] = (
    ("AOD", 0.45),
    ("ESD", 0.15),
    ("HITS", 0.15),
    ("EVNT", 0.15),
    ("RAW", 0.10),
)


def parse_dataset_name(name: str) -> Dict[str, str]:
    """Parse an ATLAS dataset name into its nomenclature fields.

    Returns a dict with ``project``, ``run``, ``stream``, ``prodstep``,
    ``datatype`` and ``version`` keys.  Raises ``ValueError`` for names that
    do not have the canonical six dot-separated sections.
    """
    parts = str(name).split(".")
    if len(parts) != 6:
        raise ValueError(
            f"dataset name {name!r} does not follow the 6-field ATLAS convention"
        )
    project, run, stream, prodstep, datatype, version = parts
    return {
        "project": project,
        "run": run,
        "stream": stream,
        "prodstep": prodstep,
        "datatype": datatype,
        "version": version,
    }


def is_daod(datatype: str) -> bool:
    """True when a datatype string is a DAOD flavour."""
    return str(datatype).startswith("DAOD")


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset entity registered in the (synthetic) Rucio catalog."""

    name: str
    project: str
    prodstep: str
    datatype: str
    n_files: int
    total_bytes: float

    @property
    def is_daod(self) -> bool:
        return is_daod(self.datatype)


class DatasetCatalog:
    """Population of datasets available for user-analysis input.

    Parameters
    ----------
    n_datasets:
        Number of distinct datasets.  The paper notes most DAOD datasets are
        used only once or twice during the observation window, so the number
        of datasets is of the same order as the number of jobs divided by a
        small reuse factor.
    daod_fraction:
        Fraction of datasets that are DAOD (the remainder exercise the
        non-DAOD filter).
    """

    def __init__(
        self,
        n_datasets: int = 2000,
        *,
        daod_fraction: float = 0.8,
        seed: SeedLike = None,
    ) -> None:
        if n_datasets < 1:
            raise ValueError("n_datasets must be at least 1")
        if not 0.0 < daod_fraction <= 1.0:
            raise ValueError("daod_fraction must be in (0, 1]")
        rng = as_rng(seed)
        self.n_datasets = int(n_datasets)
        self.daod_fraction = float(daod_fraction)

        projects = FrequencyTable(*zip(*DEFAULT_PROJECTS))
        prodsteps = FrequencyTable(*zip(*DEFAULT_PRODSTEPS))
        daod_types = FrequencyTable(*zip(*DAOD_DATATYPES))
        other_types = FrequencyTable(*zip(*NON_DAOD_DATATYPES))

        n_daod = int(round(self.n_datasets * self.daod_fraction))
        n_other = self.n_datasets - n_daod

        project_draw = projects.sample(self.n_datasets, rng)
        prodstep_draw = prodsteps.sample(self.n_datasets, rng)
        datatype_draw = np.concatenate(
            [daod_types.sample(n_daod, rng), other_types.sample(n_other, rng)]
        )
        # Non-DAOD datasets come from earlier production steps; overwrite their
        # prodstep so the joint (prodstep, datatype) structure stays coherent.
        non_daod_mask = ~np.char.startswith(datatype_draw.astype(str), "DAOD")
        prodstep_draw = prodstep_draw.astype(object)
        earlier_steps = np.array(["recon", "simul", "merge"], dtype=object)
        prodstep_draw[non_daod_mask] = rng.choice(earlier_steps, size=int(non_daod_mask.sum()))

        run_numbers = rng.integers(100_000, 999_999, size=self.n_datasets)
        versions = rng.integers(1, 40, size=self.n_datasets)

        # File counts are heavy-tailed: most datasets have tens of files, a few
        # have thousands.  Bytes per file depend on the data type (PHYSLITE is
        # much smaller than PHYS, AOD is larger still).
        n_files = np.clip(rng.lognormal(mean=3.2, sigma=1.1, size=self.n_datasets), 1, 20_000)
        n_files = np.rint(n_files).astype(np.int64)
        bytes_per_file = np.empty(self.n_datasets)
        type_scale = {
            "DAOD_PHYSLITE": 0.4e9,
            "DAOD_PHYS": 1.5e9,
            "AOD": 3.0e9,
            "ESD": 5.0e9,
            "RAW": 6.0e9,
        }
        for i, dtype in enumerate(datatype_draw.astype(str)):
            scale = type_scale.get(dtype, 1.0e9)
            bytes_per_file[i] = rng.lognormal(mean=np.log(scale), sigma=0.5)
        total_bytes = n_files * bytes_per_file

        streams = np.where(
            np.char.startswith(project_draw.astype(str), "data"), "physics_Main", "e8514_s4162_r14622"
        )
        self.datasets: List[DatasetRecord] = []
        for i in range(self.n_datasets):
            name = (
                f"{project_draw[i]}.{run_numbers[i]:06d}.{streams[i]}."
                f"{prodstep_draw[i]}.{datatype_draw[i]}.p{versions[i]:04d}"
            )
            self.datasets.append(
                DatasetRecord(
                    name=name,
                    project=str(project_draw[i]),
                    prodstep=str(prodstep_draw[i]),
                    datatype=str(datatype_draw[i]),
                    n_files=int(n_files[i]),
                    total_bytes=float(total_bytes[i]),
                )
            )
        # Columnar views of the catalog, indexed by dataset code: the
        # generator gathers per-job numbers through the codes and labels its
        # categorical columns with these arrays, never with per-job strings.
        self.name_array = np.array([d.name for d in self.datasets], dtype=object)
        self.project_array = project_draw.astype(object).astype(str)
        self.prodstep_array = prodstep_draw.astype(object).astype(str)
        self.datatype_array = datatype_draw.astype(object).astype(str)
        self.n_files_array = n_files.astype(np.float64)
        self.total_bytes_array = total_bytes.astype(np.float64)

        # Dataset popularity is itself Zipf-like: a few derivations are hammered
        # by many analyses while most are touched once or twice.
        ranks = rng.permutation(self.n_datasets) + 1
        popularity = 1.0 / ranks ** 1.05
        self.popularity = popularity / popularity.sum()

    # -- accessors ------------------------------------------------------------
    def __len__(self) -> int:
        return self.n_datasets

    def __getitem__(self, index: int) -> DatasetRecord:
        return self.datasets[index]

    @property
    def daod_datasets(self) -> List[DatasetRecord]:
        return [d for d in self.datasets if d.is_daod]

    def sample_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` dataset indices according to dataset popularity."""
        return rng.choice(self.n_datasets, size=n, p=self.popularity)

    def names(self) -> List[str]:
        return [d.name for d in self.datasets]
