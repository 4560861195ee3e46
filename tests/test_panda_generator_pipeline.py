"""Tests for the raw-record generator and the Fig. 3(b) filtering pipeline."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.data import build_dataset
from repro.panda.generator import GeneratorConfig, PandaWorkloadGenerator
from repro.panda.pipeline import dataset_profile
from repro.panda.records import (
    CATEGORICAL_FEATURES,
    JOB_STATUSES,
    NUMERICAL_FEATURES,
    PANDA_SCHEMA,
    RAW_SCHEMA,
)


class TestGeneratorConfig:
    def test_defaults_valid(self):
        config = GeneratorConfig()
        assert config.n_jobs > 0

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            GeneratorConfig(n_jobs=0)
        with pytest.raises(ValueError):
            GeneratorConfig(analysis_fraction=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(transient_fraction=1.0)


class TestRawGeneration:
    def test_schema_and_rows(self, raw_table):
        assert raw_table.schema == RAW_SCHEMA
        assert len(raw_table) == 4000

    def test_deterministic_for_seed(self):
        a = PandaWorkloadGenerator(GeneratorConfig(n_jobs=500, seed=9)).generate_raw()
        b = PandaWorkloadGenerator(GeneratorConfig(n_jobs=500, seed=9)).generate_raw()
        assert a == b

    def test_different_seeds_differ(self):
        a = PandaWorkloadGenerator(GeneratorConfig(n_jobs=500, seed=1)).generate_raw()
        b = PandaWorkloadGenerator(GeneratorConfig(n_jobs=500, seed=2)).generate_raw()
        assert a != b

    def test_creation_times_in_window(self, raw_table, panda_generator):
        times = np.asarray(raw_table["creationtime"])
        assert times.min() >= 0.0
        assert times.max() <= panda_generator.config.n_days

    def test_task_type_mix(self, raw_table):
        fraction = np.mean(np.asarray(raw_table["tasktype"]) == "analysis")
        assert 0.6 < fraction < 0.85

    def test_sites_come_from_catalog(self, raw_table, panda_generator):
        assert set(np.unique(raw_table["computingsite"])) <= set(panda_generator.sites.names)

    def test_positive_numeric_columns(self, raw_table):
        assert (np.asarray(raw_table["ninputdatafiles"]) >= 1).all()
        assert (np.asarray(raw_table["inputfilebytes"]) > 0).all()
        assert (np.asarray(raw_table["cputime_hours"]) > 0).all()
        assert (np.asarray(raw_table["corecount"]) >= 1).all()

    def test_override_row_count(self, panda_generator):
        small = panda_generator.generate_raw(200, seed=0)
        assert len(small) == 200

    def test_status_mix_contains_failures_and_transients(self, raw_table):
        statuses = set(np.unique(raw_table["jobstatus"]))
        assert "finished" in statuses and "failed" in statuses
        assert statuses - set(JOB_STATUSES), "expected some transient statuses in raw data"


class TestFilteringPipeline:
    def test_final_schema(self, panda_table):
        assert panda_table.schema == PANDA_SCHEMA
        assert list(panda_table.columns) == list(NUMERICAL_FEATURES) + list(CATEGORICAL_FEATURES)

    def test_funnel_monotone_decreasing(self, filter_report):
        rows = [r["rows"] for r in filter_report.as_rows()]
        assert all(a >= b for a, b in zip(rows, rows[1:]))

    def test_funnel_accounts_for_all_removals(self, filter_report, raw_table):
        removed = sum(stage.rows_removed for stage in filter_report.stages)
        assert filter_report.gross_records - removed == filter_report.final_records
        assert filter_report.gross_records == len(raw_table)

    def test_only_daod_datatypes_remain(self, panda_table):
        assert all(str(d).startswith("DAOD") for d in np.unique(panda_table["datatype"]))

    def test_only_final_statuses_remain(self, panda_table):
        assert set(np.unique(panda_table["jobstatus"])) <= set(JOB_STATUSES)

    def test_jobstatus_has_at_most_four_values(self, panda_table):
        assert panda_table.nunique("jobstatus") <= 4

    def test_workload_positive(self, panda_table):
        assert (np.asarray(panda_table["workload"]) > 0).all()

    def test_workload_correlates_with_input_bytes(self, panda_table):
        log_w = np.log(np.asarray(panda_table["workload"]))
        log_b = np.log(np.asarray(panda_table["inputfilebytes"]))
        corr = np.corrcoef(log_w, log_b)[0, 1]
        assert corr > 0.5

    def test_failure_rate_increases_with_workload(self, panda_table):
        workload = np.asarray(panda_table["workload"])
        failed = np.asarray(panda_table["jobstatus"]) == "failed"
        median = np.median(workload)
        high_rate = failed[workload > median].mean()
        low_rate = failed[workload <= median].mean()
        assert high_rate > low_rate

    def test_profile_matches_paper_feature_kinds(self, panda_table):
        profile = {row["name"]: row["kind"] for row in dataset_profile(panda_table)}
        for name in NUMERICAL_FEATURES:
            assert profile[name] == "numerical"
        for name in CATEGORICAL_FEATURES:
            assert profile[name] == "categorical"

    def test_report_formatting(self, filter_report):
        text = filter_report.format()
        assert "gross PanDA records" in text
        assert "DAOD" in text

    def test_generate_training_table_shortcut(self):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=1000, seed=4))
        table = generator.generate_training_table()
        assert table.schema == PANDA_SCHEMA
        assert 300 < len(table) < 1000

    def test_category_imbalance_present(self, panda_table):
        # The paper stresses imbalanced categorical columns; the most common
        # computing site should dominate the least common by a wide margin.
        counts = list(panda_table.value_counts("computingsite").values())
        assert counts[0] > 5 * counts[-1]


class TestBuildMemory:
    def test_build_dataset_peak_bytes_per_raw_job(self):
        """``build_dataset`` peaks at no more than 400 B per raw job.

        The raw table holds 56 B per job (five float64 columns and four
        int32 code columns).  A per-row string column breaks the bound:
        ``inputdatasetname`` alone would take about 250 B per job.
        """
        config = replace(ExperimentConfig.ci(), n_raw_jobs=60_000, seed=1)
        build_dataset(replace(config, n_raw_jobs=1_000))  # one-time allocations
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            data = build_dataset(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(data.raw) == config.n_raw_jobs
        assert (peak - before) / config.n_raw_jobs <= 400
