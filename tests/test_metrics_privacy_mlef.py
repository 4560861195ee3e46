"""Tests for the DCR privacy metric, MLEF efficacy metric and the report layer."""

import numpy as np
import pytest

from repro.metrics.mlef import MLEFConfig, diff_mlef, machine_learning_efficacy
from repro.metrics.privacy import (
    distance_to_closest_record,
    duplicate_fraction,
    nearest_record_distances,
)
from repro.metrics.report import (
    SurrogateScore,
    evaluate_surrogate_data,
    format_table,
    rank_models,
)
from repro.tabular.table import Table


FAST_MLEF = MLEFConfig(n_estimators=10, learning_rate=0.3, max_depth=4)


class TestDCR:
    def test_copy_of_training_data_has_zero_dcr(self, train_table):
        sample = train_table.head(300)
        assert distance_to_closest_record(train_table, sample) == pytest.approx(0.0, abs=1e-9)

    def test_perturbed_data_has_positive_dcr(self, train_table):
        sample = train_table.head(300)
        noisy_workload = np.asarray(sample["workload"]) * 1.5 + 1.0
        noisy = sample.with_column("workload", noisy_workload, "numerical")
        assert distance_to_closest_record(train_table, noisy) > 0.0

    def test_more_perturbation_larger_dcr(self, train_table):
        sample = train_table.head(200)
        w = np.asarray(sample["workload"])
        small = sample.with_column("workload", w * 1.01, "numerical")
        large = sample.with_column("workload", w * 3.0, "numerical")
        assert distance_to_closest_record(train_table, large) > distance_to_closest_record(
            train_table, small
        )

    def test_nearest_distances_shape(self, train_table, test_table):
        distances = nearest_record_distances(train_table, test_table.head(100))
        assert distances.shape == (100,)
        assert (distances >= 0).all()

    def test_duplicate_fraction_bounds(self, train_table):
        exact = duplicate_fraction(train_table, train_table.head(50))
        assert exact == pytest.approx(1.0)
        shifted = train_table.head(50)
        shifted = shifted.with_column(
            "workload", np.asarray(shifted["workload"]) + 1e9, "numerical"
        )
        assert duplicate_fraction(train_table, shifted) == pytest.approx(0.0)

    def test_empty_tables_rejected(self, train_table):
        empty = Table.empty(train_table.schema)
        with pytest.raises(ValueError):
            nearest_record_distances(train_table, empty)


class TestMLEF:
    def test_real_training_beats_shuffled_training(self, train_table, test_table):
        real_score = machine_learning_efficacy(train_table, test_table, FAST_MLEF, seed=0)
        # Destroy the feature/target relationship by shuffling the target.
        shuffled = train_table.with_column(
            "workload",
            np.random.default_rng(0).permutation(np.asarray(train_table["workload"])),
            "numerical",
        )
        shuffled_score = machine_learning_efficacy(shuffled, test_table, FAST_MLEF, seed=0)
        assert real_score < shuffled_score

    def test_diff_mlef_zero_for_same_data(self, train_table, test_table):
        gap = diff_mlef(train_table, train_table, test_table, FAST_MLEF, seed=0)
        assert gap == pytest.approx(0.0, abs=1e-9)

    def test_diff_mlef_positive_for_noise_data(self, train_table, test_table):
        noise = train_table.with_column(
            "workload",
            np.random.default_rng(1).permutation(np.asarray(train_table["workload"])),
            "numerical",
        )
        assert diff_mlef(train_table, noise, test_table, FAST_MLEF, seed=0) > 0.0

    def test_paper_config_values(self):
        config = MLEFConfig.paper()
        assert config.n_estimators == 200
        assert config.max_depth == 10
        assert config.learning_rate == pytest.approx(1.0)


class TestReport:
    def test_evaluate_identical_data_is_nearly_perfect(self, train_table, test_table):
        score = evaluate_surrogate_data(
            "identity", train_table, test_table, train_table,
            mlef_config=FAST_MLEF, seed=0,
        )
        assert score.wd == pytest.approx(0.0, abs=1e-9)
        assert score.jsd == pytest.approx(0.0, abs=1e-9)
        assert score.diff_corr == pytest.approx(0.0, abs=1e-9)
        assert score.dcr == pytest.approx(0.0, abs=1e-9)
        assert abs(score.diff_mlef) < 1e-9

    def test_skip_mlef(self, train_table, test_table):
        score = evaluate_surrogate_data(
            "quick", train_table, test_table, test_table, compute_mlef=False
        )
        assert np.isnan(score.diff_mlef)

    def test_score_serialisation(self):
        score = SurrogateScore("m", 0.1, 0.2, 0.3, 0.4, 0.5)
        row = score.as_row()
        assert row["WD"] == 0.1 and row["DCR"] == 0.4
        assert score.as_dict()["model"] == "m"

    def test_format_table_contains_all_models(self):
        scores = [
            SurrogateScore("TVAE", 0.9, 0.8, 0.6, 0.14, 5.8),
            SurrogateScore("TabDDPM", 0.8, 0.7, 0.03, 0.02, 0.8),
        ]
        text = format_table(scores)
        assert "TVAE" in text and "TabDDPM" in text
        assert "WD" in text and "diff-MLEF" in text

    def test_rank_models_directionality(self):
        good = SurrogateScore("good", wd=0.1, jsd=0.1, diff_corr=0.1, dcr=0.05, diff_mlef=0.1)
        bad = SurrogateScore("bad", wd=0.9, jsd=0.9, diff_corr=0.9, dcr=0.50, diff_mlef=9.0)
        ranks = rank_models([good, bad])
        assert ranks["WD"][0] == "good"
        assert ranks["diff-MLEF"][0] == "good"
        # DCR is better when larger, so "bad" (higher DCR) ranks first there.
        assert ranks["DCR"][0] == "bad"

    def test_rank_models_puts_nan_last(self):
        nan = float("nan")
        scores = [
            SurrogateScore("A", wd=0.1, jsd=0.1, diff_corr=0.1, dcr=0.3, diff_mlef=3.0),
            SurrogateScore("B", wd=0.2, jsd=0.2, diff_corr=0.2, dcr=nan, diff_mlef=nan),
            SurrogateScore("C", wd=0.3, jsd=0.3, diff_corr=0.3, dcr=0.1, diff_mlef=1.0),
        ]
        ranks = rank_models(scores)
        assert ranks["diff-MLEF"] == ["C", "A", "B"]
        assert ranks["DCR"] == ["A", "C", "B"]
        assert ranks["WD"] == ["A", "B", "C"]
