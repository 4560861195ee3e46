"""Tests for the experiment harness (configs, dataset bundle, Table I, figures,
ablations and the CLI)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments.ablations import ablate_diffusion_steps, ablate_smote_k
from repro.experiments.cli import main as cli_main
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import build_dataset
from repro.experiments.figures import (
    fig1_data_volume,
    fig2_scheduler_comparison,
    fig3_dataset_profile,
    fig4_distributions,
    fig5_correlations,
)
from repro.experiments.table1 import PAPER_TABLE1, build_model, run_table1
from repro.models.smote import SMOTESurrogate
from repro.models.tabddpm import TabDDPMSurrogate
from repro.models.tvae import TVAESurrogate
from repro.panda.records import CATEGORICAL_FEATURES, JOB_STATUSES, NUMERICAL_FEATURES


@pytest.fixture(scope="module")
def tiny_config():
    base = ExperimentConfig.ci()
    return dataclasses.replace(
        base,
        n_raw_jobs=2500,
        n_synthetic=500,
        models=("smote",),
        mlef=dataclasses.replace(base.mlef, n_estimators=10),
    )


@pytest.fixture(scope="module")
def tiny_dataset(tiny_config):
    return build_dataset(tiny_config)


class TestConfig:
    def test_presets_exist(self):
        assert ExperimentConfig.ci().n_raw_jobs < ExperimentConfig.default().n_raw_jobs
        assert ExperimentConfig.paper_scale().n_raw_jobs > 1_000_000

    def test_with_models(self):
        config = ExperimentConfig.ci().with_models(["smote"])
        assert config.models == ("smote",)

    def test_build_model_dispatch(self):
        config = ExperimentConfig.ci()
        assert isinstance(build_model("tvae", config), TVAESurrogate)
        assert isinstance(build_model("smote", config), SMOTESurrogate)
        assert isinstance(build_model("tabddpm", config), TabDDPMSurrogate)

    def test_build_model_seeds_differ_per_model(self):
        config = ExperimentConfig.ci()
        a = build_model("tvae", config)
        b = build_model("tabddpm", config)
        assert a._seed != b._seed


class TestDatasetBundle:
    def test_bundle_consistency(self, tiny_dataset):
        assert tiny_dataset.n_train + tiny_dataset.n_test == len(tiny_dataset.table)
        assert tiny_dataset.filter_report.final_records == len(tiny_dataset.table)
        assert len(tiny_dataset.raw) == 2500

    def test_deterministic_given_config(self, tiny_config):
        a = build_dataset(tiny_config)
        b = build_dataset(tiny_config)
        assert a.table == b.table
        assert a.train == b.train


class TestTable1:
    def test_smoke_single_model(self, tiny_config, tiny_dataset):
        result = run_table1(tiny_config, dataset=tiny_dataset, compute_mlef=True)
        scores = result["scores"]
        assert len(scores) == 1
        score = scores[0]
        assert score.model == "SMOTE"
        assert 0.0 <= score.wd < 0.5
        assert 0.0 <= score.jsd < 0.5
        assert np.isfinite(score.diff_mlef)
        assert "SMOTE" in result["formatted"]
        assert result["ranks"]["WD"][0] == "SMOTE"
        assert result["timings"]["SMOTE"]["fit_seconds"] >= 0.0

    def test_skip_mlef(self, tiny_config, tiny_dataset):
        result = run_table1(tiny_config, dataset=tiny_dataset, compute_mlef=False)
        assert np.isnan(result["scores"][0].diff_mlef)


def assert_paper_orderings(scores):
    """The model orderings the paper reads off its Table I and Figs. 4-5."""
    by_model = {s.model: s for s in scores}
    smote, tabddpm = by_model["SMOTE"], by_model["TabDDPM"]
    top = (smote, tabddpm)
    deep = (by_model["TVAE"], by_model["CTABGAN+"])

    # SMOTE: best-in-class fidelity, worst-in-class privacy.
    assert smote.dcr == min(s.dcr for s in scores)
    assert smote.diff_corr <= min(s.diff_corr for s in deep)
    # TabDDPM: close to SMOTE on fidelity, clearly better on privacy.
    assert tabddpm.dcr > smote.dcr
    assert tabddpm.diff_corr <= min(s.diff_corr for s in deep) + 0.05
    assert tabddpm.wd <= max(s.wd for s in deep) + 0.05
    # The deep baselines trail the top pair on the efficacy gap.
    assert min(s.diff_mlef for s in top) <= min(s.diff_mlef for s in deep)
    # Fig. 4: the top pair tracks the per-feature distributions at least as
    # well as the deep pair; Fig. 5: and the correlation structure.
    assert max(s.wd for s in top) <= max(s.wd for s in deep) + 0.05
    assert max(s.jsd for s in top) <= max(s.jsd for s in deep) + 0.05
    assert max(s.diff_corr for s in top) <= min(s.diff_corr for s in deep) + 0.02
    assert smote.diff_corr < 0.15


class TestPaperClaims:
    """The paper's orderings hold on its own Table I and on a CI-preset
    reproduction (exact mode, diff-MLEF on).  Absolute values differ: the
    trace is synthetic and the training budgets are scaled down."""

    @pytest.fixture(scope="class")
    def ci_dataset(self):
        return build_dataset(ExperimentConfig.ci())

    def test_orderings_hold_on_the_paper_values(self):
        assert_paper_orderings(PAPER_TABLE1)

    def test_orderings_hold_on_the_reproduction(self, ci_dataset):
        scores = run_table1(ExperimentConfig.ci(), dataset=ci_dataset)["scores"]
        assert [s.model for s in scores] == ["TVAE", "CTABGAN+", "SMOTE", "TabDDPM"]
        assert_paper_orderings(scores)

    def test_more_diffusion_steps_do_not_hurt_fidelity(self, ci_dataset):
        config = ExperimentConfig.ci()
        small_ddpm = dataclasses.replace(config.tabddpm, epochs=20, hidden_dims=(128,))
        rows = ablate_diffusion_steps(
            dataclasses.replace(config, tabddpm=small_ddpm), ci_dataset, steps=(10, 100)
        )
        assert [row["timesteps"] for row in rows] == [10.0, 100.0]
        assert rows[1]["WD"] <= rows[0]["WD"] + 0.05


class TestFigures:
    def test_fig1_series(self, tiny_config, tiny_dataset):
        series = fig1_data_volume(tiny_config, dataset=tiny_dataset)
        cumulative = series["cumulative_bytes"]
        assert np.all(np.diff(cumulative) >= 0)
        assert series["total_petabytes"][0] > 0
        total = float(np.asarray(tiny_dataset.table["inputfilebytes"]).sum())
        assert cumulative[-1] == pytest.approx(total, rel=1e-9)
        # The volume arrives across the window, not in one burst.
        assert 0.2 * total < cumulative[len(cumulative) // 2] < 0.8 * total

    def test_fig2_rows(self, tiny_config, tiny_dataset):
        result = fig2_scheduler_comparison(
            tiny_config, dataset=tiny_dataset, brokers=("random", "least_loaded"), max_jobs=300
        )
        rows = result["rows"]
        assert len(rows) == 2
        assert {r["broker"] for r in rows} == {"random", "least_loaded"}
        assert all(r["workload"] == "real" for r in rows)
        assert all(r["completed"] == r["jobs"] for r in rows)
        # The compressed trace exercises the queues, and an informed policy is
        # not much worse than random assignment (at saturation the FIFO
        # backlog dominates either way).
        assert any(r["mean_utilization"] > 0.01 for r in rows)
        by_broker = {r["broker"]: r for r in rows}
        assert by_broker["least_loaded"]["mean_wait_h"] <= 1.5 * by_broker["random"]["mean_wait_h"] + 1.0

    def test_fig2_with_synthetic(self, tiny_config, tiny_dataset):
        synthetic = SMOTESurrogate().fit(tiny_dataset.train).sample(300, seed=0)
        result = fig2_scheduler_comparison(
            tiny_config, dataset=tiny_dataset, synthetic=synthetic,
            brokers=("least_loaded",), max_jobs=300,
        )
        labels = {r["workload"] for r in result["rows"]}
        assert labels == {"real", "synthetic"}

    def test_fig3_profile_and_funnel(self, tiny_config, tiny_dataset):
        result = fig3_dataset_profile(tiny_config, dataset=tiny_dataset)
        profile = {row["name"]: row for row in result["profile"]}
        assert {"workload", "computingsite", "datatype"} <= set(profile)
        assert all(profile[name]["kind"] == "numerical" for name in NUMERICAL_FEATURES)
        assert all(profile[name]["kind"] == "categorical" for name in CATEGORICAL_FEATURES)
        assert profile["jobstatus"]["n_unique"] <= len(JOB_STATUSES)
        assert profile["computingsite"]["n_unique"] >= 10
        funnel_rows = [r["rows"] for r in result["funnel"]]
        assert funnel_rows[0] == 2500
        assert all(a >= b for a, b in zip(funnel_rows, funnel_rows[1:]))
        assert 0.3 < funnel_rows[-1] / funnel_rows[0] < 0.8

    def test_fig4_structure(self, tiny_config, tiny_dataset):
        synthetic = {"SMOTE": SMOTESurrogate().fit(tiny_dataset.train).sample(400, seed=1)}
        result = fig4_distributions(tiny_config, dataset=tiny_dataset, synthetic_tables=synthetic)
        assert set(result["numerical"]) == set(tiny_dataset.train.schema.numerical)
        assert set(result["categorical"]) == set(tiny_dataset.train.schema.categorical)
        series = result["numerical"]["workload"]["SMOTE"]
        assert series["real"].shape == series["synthetic"].shape
        top_site = result["categorical"]["computingsite"]["SMOTE"][0]
        assert abs(top_site["real"] - top_site["synthetic"]) < 0.15

    def test_fig5_structure(self, tiny_config, tiny_dataset):
        synthetic = {"SMOTE": SMOTESurrogate().fit(tiny_dataset.train).sample(400, seed=2)}
        result = fig5_correlations(tiny_config, dataset=tiny_dataset, synthetic_tables=synthetic)
        k = len(result["columns"])
        assert result["ground_truth"].shape == (k, k)
        np.testing.assert_allclose(np.diag(result["ground_truth"]), 1.0)
        assert result["models"]["SMOTE"]["difference"].shape == (k, k)
        assert result["models"]["SMOTE"]["diff_corr"] >= 0.0


class TestAblations:
    def test_smote_k_sweep(self, tiny_config, tiny_dataset):
        rows = ablate_smote_k(tiny_config, tiny_dataset, ks=(1, 5, 25))
        assert [row["k"] for row in rows] == [1.0, 5.0, 25.0]
        # A wider neighbourhood does not bring the synthetic rows closer to
        # the real ones, and fidelity stays tight for every k.
        assert rows[-1]["DCR"] >= rows[0]["DCR"] - 1e-3
        assert all(row["WD"] < 0.05 for row in rows)


class TestCLI:
    def test_fig3_text_output(self, capsys):
        exit_code = cli_main(["fig3", "--preset", "ci", "--raw-jobs", "2000", "--seed", "1"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "filtering funnel" in out.lower()
        assert "workload" in out

    def test_fig1_json_output(self, capsys):
        exit_code = cli_main(["fig1", "--preset", "ci", "--raw-jobs", "2000", "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "cumulative_bytes" in payload

    def test_table1_smoke(self, capsys):
        exit_code = cli_main(
            ["table1", "--preset", "ci", "--raw-jobs", "2000", "--models", "smote", "--no-mlef"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "SMOTE" in out and "WD" in out
        assert "THE PAPER'S TABLE I" in out and "0.871" in out

    def test_invalid_experiment_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["table7"])
