"""Filtering and feature-derivation pipeline (paper Fig. 3b).

The raw PanDA stream is reduced to the nine-column training table in four
stages, each reported in a :class:`FilterReport` so the Fig. 3(b) funnel can
be regenerated:

1. keep only user-analysis jobs,
2. keep only jobs whose input dataset is a DAOD flavour,
3. keep only jobs in a final status (finished / failed / cancelled / closed),
4. parse the dataset name into project / prodstep / datatype and derive the
   HS23-weighted ``workload`` feature.

Every stage works on category codes: a filter decides once per vocabulary
entry and masks the rows through their codes, the dataset names of the
vocabulary (at most the catalog size) are the only names parsed, and HS23
is looked up once per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.panda.daod import is_daod, parse_dataset_name
from repro.panda.records import JOB_STATUSES, PANDA_SCHEMA
from repro.panda.sites import SiteCatalog
from repro.panda.workload import hs23_workload
from repro.tabular.table import CategoricalColumn, Table


@dataclass
class FilterStage:
    """One stage of the funnel: its name and the row count after it ran."""

    name: str
    rows_after: int
    rows_removed: int


@dataclass
class FilterReport:
    """Row counts through the funnel, mirroring the paper's Fig. 3(b)."""

    gross_records: int
    stages: List[FilterStage] = field(default_factory=list)

    def add(self, name: str, rows_before: int, rows_after: int) -> None:
        self.stages.append(FilterStage(name, rows_after, rows_before - rows_after))

    @property
    def final_records(self) -> int:
        return self.stages[-1].rows_after if self.stages else self.gross_records

    def as_rows(self) -> List[Dict[str, object]]:
        """Funnel as a list of dicts (for printing/benchmarks)."""
        rows: List[Dict[str, object]] = [
            {"stage": "gross PanDA records", "rows": self.gross_records, "removed": 0}
        ]
        for stage in self.stages:
            rows.append({"stage": stage.name, "rows": stage.rows_after, "removed": stage.rows_removed})
        return rows

    def format(self) -> str:
        lines = ["Filtering funnel (Fig. 3b)"]
        for row in self.as_rows():
            lines.append(f"  {row['stage']:<34} {row['rows']:>10,d}   (-{row['removed']:,d})")
        return "\n".join(lines)


class FilteringPipeline:
    """Reduce raw records to the nine-feature training table."""

    def __init__(self, sites: SiteCatalog):
        self.sites = sites

    def run(self, raw: Table) -> Tuple[Table, FilterReport]:
        """Apply all stages; returns the final table and the funnel report."""
        report = FilterReport(gross_records=len(raw))

        # Stage 1: user-analysis jobs only.
        analysis = raw.mask(_keep_rows(raw, "tasktype", lambda task: task == "analysis"))
        report.add("user analysis jobs", len(raw), len(analysis))

        # Stage 2: DAOD input datasets only.
        daod = analysis.mask(
            _keep_rows(
                analysis,
                "inputdatasetname",
                lambda name: is_daod(parse_dataset_name(name)["datatype"]),
            )
        )
        report.add("DAOD input datasets", len(analysis), len(daod))

        # Stage 3: final job statuses only.
        final = daod.mask(_keep_rows(daod, "jobstatus", lambda status: status in JOB_STATUSES))
        report.add("final job status", len(daod), len(final))

        # Stage 4: parse nomenclature and derive workload.
        table = self.derive_features(final)
        report.add("feature derivation", len(final), len(table))
        return table, report

    def derive_features(self, records: Table) -> Table:
        """Parse dataset names and compute the workload feature.

        Works on the category codes: each name in the ``inputdatasetname``
        vocabulary is parsed once and each site in the ``computingsite``
        vocabulary is looked up once, and the rows gather the results
        through their codes.  Every categorical column is rebuilt with the
        sorted vocabulary of the labels its rows hold.
        """
        names = records.categorical_column("inputdatasetname")
        parsed = [parse_dataset_name(name) for name in names.vocab]
        sites = records.categorical_column("computingsite")
        hs23 = self.sites.hs23_of(sites.vocab)[sites.codes]
        status = records.categorical_column("jobstatus")

        data = {
            "workload": hs23_workload(records["corecount"], records["cputime_hours"], hs23),
            "creationtime": records["creationtime"],
            "ninputdatafiles": records["ninputdatafiles"],
            "inputfilebytes": records["inputfilebytes"],
            "jobstatus": CategoricalColumn.from_codes(status.codes, status.vocab),
            "computingsite": CategoricalColumn.from_codes(sites.codes, sites.vocab),
        }
        for key in ("project", "prodstep", "datatype"):
            data[key] = CategoricalColumn.from_codes(names.codes, [p[key] for p in parsed])
        return Table(data, PANDA_SCHEMA)


def _keep_rows(table: Table, name: str, keep: Callable[[str], bool]) -> np.ndarray:
    """Row mask of ``table`` where ``keep`` holds for the ``name`` label.

    ``keep`` runs once per vocabulary entry; the rows gather the verdict
    through their codes.
    """
    column = table.categorical_column(name)
    verdict = np.array([keep(label) for label in column.vocab], dtype=bool)
    return verdict[column.codes]


def dataset_profile(table: Table) -> List[Dict[str, object]]:
    """Feature profile of the filtered table — the paper's Fig. 3(a)."""
    return table.profile()
