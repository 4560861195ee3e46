"""Tests for the analysis extensions (temporal structure, diffusion anomaly
scoring, dataset popularity)."""

import numpy as np
import pytest

from repro.analysis.anomaly import DiffusionAnomalyDetector
from repro.analysis.popularity import dataset_popularity, reuse_factor_table, top_datasets
from repro.analysis.temporal import (
    TemporalProfile,
    arrival_counts,
    compare_temporal_profiles,
    dominant_periods,
    periodogram,
    weekly_profile,
)
from repro.models.tabddpm import TabDDPMConfig, TabDDPMSurrogate
from repro.panda.temporal import ArrivalProcess


class TestArrivalCountsAndPeriodogram:
    def test_counts_conserve_total(self):
        times = np.random.default_rng(0).uniform(0, 30, size=5000)
        _, counts = arrival_counts(times, bins_per_day=8)
        assert counts.sum() == 5000

    def test_counts_empty_rejected(self):
        with pytest.raises(ValueError):
            arrival_counts(np.array([]))

    def test_periodogram_requires_enough_samples(self):
        with pytest.raises(ValueError):
            periodogram(np.array([1.0, 2.0]))

    def test_periodogram_finds_injected_daily_cycle(self):
        # Build a synthetic series with a strong 1-day cycle.
        bins_per_day = 8
        t = np.arange(0, 60, 1.0 / bins_per_day)
        counts = 100 + 50 * np.sin(2 * np.pi * t)
        periods, power = periodogram(counts, bins_per_day=bins_per_day)
        assert abs(periods[np.argmax(power)] - 1.0) < 0.1

    def test_dominant_periods_detect_weekly_cycle(self):
        process = ArrivalProcess(n_days=140.0, diurnal_amplitude=0.0, weekly_amplitude=0.6,
                                 drift_scale=0.0, bursts=[])
        times = process.sample_times(60_000, seed=0)
        top = dominant_periods(times, bins_per_day=4, top_k=3, min_period_days=2.0)
        assert any(abs(p - 7.0) < 1.0 for p in top)

    def test_dominant_periods_detect_daily_cycle(self):
        process = ArrivalProcess(n_days=60.0, diurnal_amplitude=0.8, weekly_amplitude=0.0,
                                 drift_scale=0.0, bursts=[])
        times = process.sample_times(60_000, seed=1)
        top = dominant_periods(times, bins_per_day=12, top_k=3, min_period_days=0.3)
        assert any(abs(p - 1.0) < 0.2 for p in top)


class TestWeeklyProfile:
    def test_profile_shape_and_mean(self):
        times = np.random.default_rng(0).uniform(0, 70, size=20000)
        profile = weekly_profile(times, bins_per_day=4)
        assert profile.shape == (28,)
        assert profile.mean() == pytest.approx(1.0, rel=1e-6)

    def test_weekend_suppression_detected(self):
        process = ArrivalProcess(n_days=140.0, diurnal_amplitude=0.0, weekly_amplitude=0.5,
                                 drift_scale=0.0, bursts=[])
        times = process.sample_times(50_000, seed=2)
        profile = TemporalProfile.from_times(times)
        assert profile.weekend_suppression > 0.2

    def test_uniform_stream_has_no_suppression(self):
        times = np.random.default_rng(1).uniform(0, 140, size=50_000)
        profile = TemporalProfile.from_times(times)
        assert abs(profile.weekend_suppression) < 0.1


class TestCompareTemporalProfiles:
    def test_identical_traces_match(self, panda_table):
        result = compare_temporal_profiles(panda_table, panda_table)
        assert result["weekly_profile_correlation"] == pytest.approx(1.0)
        assert result["weekend_suppression_gap"] == pytest.approx(0.0)
        assert result["dominant_period_match"] == 1.0

    def test_uniform_synthetic_scores_worse_than_real(self, panda_table):
        rng = np.random.default_rng(0)
        uniform_times = rng.uniform(0, 60, size=len(panda_table))
        uniform = panda_table.with_column("creationtime", uniform_times, "numerical")
        matched = compare_temporal_profiles(panda_table, panda_table)
        mismatched = compare_temporal_profiles(panda_table, uniform)
        assert mismatched["weekly_profile_correlation"] < matched["weekly_profile_correlation"]


class TestDiffusionAnomalyDetector:
    @pytest.fixture(scope="class")
    def fitted_surrogate(self, train_table):
        model = TabDDPMSurrogate(
            TabDDPMConfig(n_timesteps=50, hidden_dims=(128, 128), epochs=40, batch_size=256,
                          learning_rate=1e-3),
            seed=0,
        )
        model.fit(train_table.head(1500))
        return model

    def test_requires_fitted_surrogate(self):
        with pytest.raises(ValueError):
            DiffusionAnomalyDetector(TabDDPMSurrogate(TabDDPMConfig.fast()))

    def test_scores_shape_and_finite(self, fitted_surrogate, train_table):
        detector = DiffusionAnomalyDetector(fitted_surrogate, seed=0)
        scores = detector.score(train_table.head(100))
        assert scores.shape == (100,)
        assert np.isfinite(scores).all()

    def test_off_manifold_records_score_higher(self, fitted_surrogate, train_table):
        """Records whose columns are independently permuted break the joint
        structure the diffusion model learned and must score higher on average."""
        from repro.tabular.table import Table

        detector = DiffusionAnomalyDetector(fitted_surrogate, n_repeats=3, seed=0)
        inliers = train_table.head(150)
        rng = np.random.default_rng(0)
        permuted = Table(
            {c: np.asarray(inliers[c])[rng.permutation(len(inliers))] for c in inliers.columns},
            inliers.schema,
        )
        inlier_scores = detector.score(inliers)
        outlier_scores = detector.score(permuted)
        assert outlier_scores.mean() > inlier_scores.mean()

    def test_calibrated_threshold(self, fitted_surrogate, train_table):
        detector = DiffusionAnomalyDetector(fitted_surrogate, seed=0)
        detector.calibrate(train_table.head(200))
        flags = detector.is_anomalous(train_table.head(100), percentile=99.0)
        assert flags.dtype == bool
        assert flags.mean() < 0.2  # most in-distribution records pass

    def test_single_category_column_never_reads_uninitialised_memory(self, monkeypatch):
        """A single-category column is a width-1 one-hot block that is not
        diffused: the denoiser must see its constant, whatever memory the
        noisy buffer was allocated over."""
        from repro.tabular.schema import TableSchema
        from repro.tabular.table import Table

        rng = np.random.default_rng(4)
        n = 400
        table = Table(
            {
                "x": rng.normal(size=n),
                "cat": rng.choice(["a", "b", "c"], n),
                "single": np.full(n, "only"),
            },
            TableSchema.from_columns(numerical=["x"], categorical=["cat", "single"]),
        )
        model = TabDDPMSurrogate(TabDDPMConfig.fast(), seed=0).fit(table)
        empty_like = np.empty_like
        scores = []
        for garbage in (0.0, 1e3):

            def dirty_empty_like(prototype, *args, garbage=garbage, **kwargs):
                out = empty_like(prototype, *args, **kwargs)
                out[...] = garbage
                return out

            monkeypatch.setattr(np, "empty_like", dirty_empty_like)
            scores.append(DiffusionAnomalyDetector(model, seed=3).score(table))
        monkeypatch.undo()
        assert np.isfinite(scores[0]).all()
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_invalid_parameters(self, fitted_surrogate):
        with pytest.raises(ValueError):
            DiffusionAnomalyDetector(fitted_surrogate, timesteps=[10_000])
        with pytest.raises(ValueError):
            DiffusionAnomalyDetector(fitted_surrogate, n_repeats=0)
        detector = DiffusionAnomalyDetector(fitted_surrogate, seed=0)
        with pytest.raises(RuntimeError):
            detector.is_anomalous(None)  # not calibrated yet


class TestDatasetPopularity:
    def test_counts_sum_to_rows(self, raw_table):
        stats = dataset_popularity(raw_table)
        assert sum(s.n_uses for s in stats) == len(raw_table)
        assert all(s.n_uses >= 1 for s in stats)

    def test_sorted_by_use_count(self, raw_table):
        stats = dataset_popularity(raw_table)
        uses = [s.n_uses for s in stats]
        assert uses == sorted(uses, reverse=True)

    def test_reuse_factor_definition(self, raw_table):
        stats = dataset_popularity(raw_table)
        assert all(s.reuse_factor == s.n_uses - 1 for s in stats)

    def test_time_span_consistent(self, raw_table):
        stats = dataset_popularity(raw_table)
        assert all(s.last_use_day >= s.first_use_day for s in stats)

    def test_top_datasets(self, raw_table):
        top = top_datasets(raw_table, k=5)
        assert len(top) == 5
        assert top[0].n_uses >= top[-1].n_uses

    def test_missing_column_rejected(self, panda_table):
        with pytest.raises(KeyError):
            dataset_popularity(panda_table)

    def test_reuse_factor_table_schema(self, raw_table):
        table = reuse_factor_table(raw_table)
        assert set(table.columns) == {
            "reuse_factor", "total_gigabytes", "active_span_days", "project", "datatype",
        }
        assert (np.asarray(table["reuse_factor"]) >= 0).all()
        assert len(table) == len(dataset_popularity(raw_table))

    def test_reuse_factor_predictable_with_boosting(self, raw_table):
        """End-to-end check of the paper's follow-up idea: reuse factors can be
        regressed from dataset attributes with the boosting substrate."""
        from repro.boosting.gbdt import TabularBoostingRegressor

        table = reuse_factor_table(raw_table)
        if len(table) < 50:
            pytest.skip("not enough datasets in the fixture trace")
        model = TabularBoostingRegressor(
            target_column="reuse_factor", n_estimators=20, learning_rate=0.3, max_depth=4, seed=0
        )
        model.fit(table)
        predictions = model.predict(table)
        assert predictions.shape == (len(table),)
        assert np.isfinite(predictions).all()
