"""Additional CLI coverage: JSON output paths and model restriction flags.

These use tiny raw-record counts and the SMOTE-only model set so each CLI
invocation stays in the sub-second-to-few-seconds range.
"""

import json

import numpy as np

from repro.experiments.cli import main as cli_main

FAST = ["--preset", "ci", "--raw-jobs", "2000", "--seed", "3"]


class TestTable1CLI:
    def test_json_payload_schema(self, capsys):
        assert cli_main(["table1", *FAST, "--models", "smote", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"scores", "ranks", "timings", "paper"}
        (score,) = payload["scores"]
        assert score["model"] == "SMOTE"
        for key in ("wd", "jsd", "diff_corr", "dcr", "diff_mlef"):
            assert isinstance(score[key], float)
        assert [row["model"] for row in payload["paper"]] == ["TVAE", "CTABGAN+", "SMOTE", "TabDDPM"]
        assert payload["paper"][2]["wd"] == 0.871

    def test_multiple_models_ranked(self, capsys):
        assert cli_main(["table1", *FAST, "--models", "smote", "copula", "--no-mlef"]) == 0
        out = capsys.readouterr().out
        assert "SMOTE" in out and "GaussianCopula" in out
        assert "DCR" in out


class TestFigureCLIs:
    def test_fig2_text_table(self, capsys):
        assert cli_main(["fig2", *FAST]) == 0
        out = capsys.readouterr().out
        assert "broker" in out
        assert "least_loaded" in out

    def test_fig4_text_output(self, capsys):
        assert cli_main(["fig4", *FAST, "--models", "smote"]) == 0
        out = capsys.readouterr().out
        assert "computingsite" in out
        assert "SMOTE" in out

    def test_fig5_json_output(self, capsys):
        assert cli_main(["fig5", *FAST, "--models", "smote", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "ground_truth" in payload and "models" in payload
        matrix = np.asarray(payload["ground_truth"])
        assert matrix.shape[0] == matrix.shape[1] == len(payload["columns"])
        assert "SMOTE" in payload["models"]

    def test_fig5_text_output(self, capsys):
        assert cli_main(["fig5", *FAST, "--models", "smote"]) == 0
        out = capsys.readouterr().out
        assert "diff-CORR" in out

    def test_fig3_json_output(self, capsys):
        assert cli_main(["fig3", *FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "profile" in payload and "funnel" in payload


class TestAblationCLI:
    def test_smote_sweep_text(self, capsys):
        assert cli_main(["ablations", *FAST, "--which", "smote_k"]) == 0
        out = capsys.readouterr().out
        assert "smote_k" in out
        assert "DCR" in out

    def test_smote_sweep_json(self, capsys):
        assert cli_main(["ablations", *FAST, "--which", "smote_k", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "smote_k" in payload
        assert len(payload["smote_k"]) >= 2


CHAOS = [
    "serve",
    *FAST,
    "--models",
    "smote",
    "--workers",
    "2",
    "--fault-plan",
    "kill@1,fail@0*2,delay@3:0.5",
    "--chunk-timeout",
    "0.3",
    "--hedge-multiplier",
    "3",
    "--requests",
    "4",
    "--serve-rows",
    "4000",
    "--chunk-size",
    "250",
    "--json",
]


class TestServeChaosCLI:
    """``serve --fault-plan`` checks its byte promise against the fault-free
    in-process reference (the CI chaos step runs the same path)."""

    def test_faults_are_recovered_to_the_reference_bytes(self, capsys):
        assert cli_main(CHAOS) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fault_check"] == {"verified": True, "mismatches": 0}
        assert payload["pool_restarts"] >= 1
        assert payload["chunk_retries"] >= 1

    def test_a_diverging_table_fails_the_run(self, capsys, monkeypatch):
        # Shift the reference's seed: the served tables no longer match it.
        from repro.models.base import Surrogate

        sample_batches = Surrogate.sample_batches

        def shifted(self, n, chunk_size, *, seed=None, sampling_mode="exact"):
            return sample_batches(self, n, chunk_size, seed=seed + 1, sampling_mode=sampling_mode)

        monkeypatch.setattr(Surrogate, "sample_batches", shifted)
        assert cli_main(CHAOS) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["fault_check"] == {"verified": False, "mismatches": 4}
        assert "diverged from the fault-free reference" in captured.err
