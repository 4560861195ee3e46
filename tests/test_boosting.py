"""Tests for the gradient-boosting stack (binner, tree, GBDT, target encoding)."""

import numpy as np
import pytest

from repro.boosting.gbdt import GradientBoostingRegressor, TabularBoostingRegressor
from repro.boosting.target_encoding import OrderedTargetEncoder
from repro.boosting.tree import FeatureBinner, RegressionTree
from repro.tabular.table import CategoricalColumn


@pytest.fixture()
def regression_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(600, 4))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1] + np.sin(2.0 * X[:, 2]) + 0.1 * rng.normal(size=600)
    return X, y


class TestFeatureBinner:
    def test_bins_within_range(self, regression_data):
        X, _ = regression_data
        binner = FeatureBinner(max_bins=16)
        binned = binner.fit_transform(X)
        assert binned.dtype == np.uint8
        assert binned.max() < 16

    def test_monotone_binning(self):
        x = np.linspace(0, 1, 100)[:, None]
        binned = FeatureBinner(max_bins=8).fit_transform(x)[:, 0]
        assert np.all(np.diff(binned.astype(int)) >= 0)

    def test_transform_unseen_values_clipped(self):
        binner = FeatureBinner(max_bins=8).fit(np.linspace(0, 1, 50)[:, None])
        binned = binner.transform(np.array([[-10.0], [10.0]]))
        assert binned[0, 0] == 0
        assert binned[1, 0] == binner.n_bins(0) - 1

    def test_wrong_feature_count(self, regression_data):
        X, _ = regression_data
        binner = FeatureBinner().fit(X)
        with pytest.raises(ValueError):
            binner.transform(X[:, :2])

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1)

    def test_constant_feature(self):
        binned = FeatureBinner(max_bins=8).fit_transform(np.full((20, 1), 2.0))
        assert np.unique(binned).size == 1


class TestRegressionTree:
    def test_reduces_error_over_mean(self, regression_data):
        X, y = regression_data
        binner = FeatureBinner(max_bins=32)
        binned = binner.fit_transform(X)
        n_bins = [binner.n_bins(j) for j in range(X.shape[1])]
        tree = RegressionTree(max_depth=4, min_samples_leaf=5).fit(binned, y - y.mean(), n_bins)
        pred = tree.predict(binned) + y.mean()
        assert np.mean((pred - y) ** 2) < 0.5 * np.var(y)

    def test_respects_max_depth(self, regression_data):
        X, y = regression_data
        binner = FeatureBinner(max_bins=16)
        binned = binner.fit_transform(X)
        n_bins = [binner.n_bins(j) for j in range(X.shape[1])]
        tree = RegressionTree(max_depth=2, min_samples_leaf=5).fit(binned, y, n_bins)
        assert tree.depth() <= 2

    def test_min_samples_leaf(self, regression_data):
        X, y = regression_data
        binner = FeatureBinner(max_bins=16)
        binned = binner.fit_transform(X)
        n_bins = [binner.n_bins(j) for j in range(X.shape[1])]
        tree = RegressionTree(max_depth=8, min_samples_leaf=100).fit(binned, y, n_bins)
        assert all(n.n_samples >= 100 for n in tree.nodes_ if n.is_leaf and n.n_samples > 0)

    def test_constant_target_single_leaf(self):
        binned = np.random.default_rng(0).integers(0, 8, size=(100, 2)).astype(np.uint8)
        tree = RegressionTree(max_depth=3).fit(binned, np.zeros(100), [8, 8])
        assert tree.n_leaves == 1

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((2, 2), dtype=np.uint8))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
        with pytest.raises(ValueError):
            RegressionTree(min_samples_leaf=0)


class TestGradientBoostingRegressor:
    def test_beats_constant_baseline(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=40, learning_rate=0.2, max_depth=4, seed=0)
        model.fit(X, y)
        mse = model.score_mse(X, y)
        assert mse < 0.2 * np.var(y)

    def test_generalises(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=40, learning_rate=0.2, max_depth=3, seed=0)
        model.fit(X[:400], y[:400])
        assert model.score_mse(X[400:], y[400:]) < 0.5 * np.var(y[400:])

    def test_training_loss_decreases(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=30, learning_rate=0.2, seed=0).fit(X, y)
        assert model.train_losses_[-1] < model.train_losses_[0]

    def test_subsample(self, regression_data):
        X, y = regression_data
        model = GradientBoostingRegressor(n_estimators=20, subsample=0.5, seed=0).fit(X, y)
        assert model.score_mse(X, y) < np.var(y)

    def test_more_estimators_fit_better(self, regression_data):
        X, y = regression_data
        small = GradientBoostingRegressor(n_estimators=5, learning_rate=0.1, seed=0).fit(X, y)
        large = GradientBoostingRegressor(n_estimators=60, learning_rate=0.1, seed=0).fit(X, y)
        assert large.score_mse(X, y) < small.score_mse(X, y)

    def test_shape_validation(self, regression_data):
        X, y = regression_data
        with pytest.raises(ValueError):
            GradientBoostingRegressor().fit(X, y[:-1])

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(n_estimators=0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(learning_rate=0.0)
        with pytest.raises(ValueError):
            GradientBoostingRegressor(subsample=0.0)

    def test_unfitted_predict_raises(self, regression_data):
        X, _ = regression_data
        with pytest.raises(RuntimeError):
            GradientBoostingRegressor().predict(X)


class TestOrderedTargetEncoder:
    def test_full_statistics_capture_category_means(self):
        cats = np.array(["a"] * 50 + ["b"] * 50)
        y = np.concatenate([np.full(50, 1.0), np.full(50, 5.0)])
        enc = OrderedTargetEncoder(smoothing=0.0, seed=0).fit(cats, y)
        encoded = enc.transform(np.array(["a", "b"]))
        assert encoded[0] == pytest.approx(1.0)
        assert encoded[1] == pytest.approx(5.0)

    def test_smoothing_shrinks_rare_categories(self):
        cats = np.array(["common"] * 99 + ["rare"])
        y = np.concatenate([np.zeros(99), np.array([100.0])])
        enc = OrderedTargetEncoder(smoothing=10.0, seed=0).fit(cats, y)
        assert enc.transform(np.array(["rare"]))[0] < 50.0

    def test_unseen_category_gets_prior(self):
        enc = OrderedTargetEncoder(seed=0).fit(np.array(["a", "b"]), np.array([0.0, 2.0]))
        assert enc.transform(np.array(["zzz"]))[0] == pytest.approx(1.0)

    def test_ordered_encoding_differs_from_full(self):
        rng = np.random.default_rng(0)
        cats = rng.choice(["a", "b", "c"], size=200)
        y = rng.normal(size=200)
        enc = OrderedTargetEncoder(seed=0)
        ordered = enc.fit_transform_ordered(cats, y)
        full = enc.transform(cats)
        assert not np.allclose(ordered, full)

    def test_ordered_encoding_no_self_leakage(self):
        # With one row per category, the ordered encoding must equal the prior.
        cats = np.array(["a", "b", "c"])
        y = np.array([10.0, 20.0, 30.0])
        enc = OrderedTargetEncoder(smoothing=1.0, seed=0)
        ordered = enc.fit_transform_ordered(cats, y)
        np.testing.assert_allclose(ordered, np.full(3, y.mean()))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            OrderedTargetEncoder().fit(np.array(["a"]), np.array([1.0, 2.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_smoothing_encodes_rows_without_history_as_prior(self):
        # Without smoothing the first row of each category has no earlier
        # row to average over: 0/0, which used to come out as NaN.
        cats = np.array(["a", "b", "a", "c", "b"])
        y = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        ordered = OrderedTargetEncoder(smoothing=0.0, seed=0).fit_transform_ordered(cats, y)
        assert np.isfinite(ordered).all()
        # "a" and "b" have two rows each: whichever the permutation puts
        # first gets the prior, the other that row's target.
        for first, second in ((0, 2), (1, 4)):
            got = {ordered[first], ordered[second]}
            assert got == {y.mean(), y[first]} or got == {y.mean(), y[second]}
        assert ordered[3] == y.mean()

    def test_accepts_a_categorical_column(self):
        cats = np.array(["b", "a", "b", "c"])
        y = np.array([1.0, 2.0, 3.0, 4.0])
        column = CategoricalColumn.from_values(cats)
        by_column = OrderedTargetEncoder(seed=3)
        by_array = OrderedTargetEncoder(seed=3)
        np.testing.assert_array_equal(
            by_column.fit_transform_ordered(column, y), by_array.fit_transform_ordered(cats, y)
        )
        assert by_column.statistics_ == by_array.statistics_
        np.testing.assert_array_equal(by_column.transform(column), by_array.transform(cats))


class TestTabularBoostingRegressor:
    def test_fits_mixed_table(self, train_table, test_table):
        model = TabularBoostingRegressor(
            target_column="workload", n_estimators=20, learning_rate=0.3, max_depth=4,
            log_target=True, seed=0,
        )
        model.fit(train_table)
        mse = model.score_mse(test_table)
        log_target = np.log(np.maximum(test_table["workload"], 1e-12))
        assert mse < np.var(log_target)

    def test_unknown_target_column(self, train_table):
        with pytest.raises(KeyError):
            TabularBoostingRegressor(target_column="nope").fit(train_table)

    def test_predict_before_fit(self, train_table):
        with pytest.raises(RuntimeError):
            TabularBoostingRegressor(target_column="workload").predict(train_table)

    def test_prediction_shape(self, train_table, test_table):
        model = TabularBoostingRegressor(
            target_column="workload", n_estimators=10, learning_rate=0.3, log_target=True, seed=0
        ).fit(train_table)
        assert model.predict(test_table).shape == (len(test_table),)


class TestBinnerVectorizedEquivalence:
    """Single stacked searchsorted vs the per-feature loop it replaced."""

    def _loop_transform(self, binner, X):
        binned = np.empty(X.shape, dtype=np.uint8)
        for j, edges in enumerate(binner.bin_edges_):
            binned[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return binned

    def test_matches_per_feature_loop(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(3_000, 9)) * rng.uniform(0.1, 50.0, size=9)
        X[:, 0] = np.round(X[:, 0])  # heavy ties
        X[:, 1] = 7.0                # constant column
        for max_bins in (2, 16, 64, 256):
            binner = FeatureBinner(max_bins=max_bins).fit(X)
            np.testing.assert_array_equal(binner.transform(X), self._loop_transform(binner, X))
            query = rng.normal(size=(500, 9)) * 100.0
            np.testing.assert_array_equal(
                binner.transform(query), self._loop_transform(binner, query)
            )

    def test_duplicate_edges_across_features(self):
        # Identical columns produce identical (tied) edge values across
        # features; the stacked rank table must keep them separated.
        x = np.linspace(0.0, 1.0, 200)
        X = np.column_stack([x, x, x[::-1]])
        binner = FeatureBinner(max_bins=8).fit(X)
        np.testing.assert_array_equal(binner.transform(X), self._loop_transform(binner, X))

    def test_wide_matrix_fallback_path(self, monkeypatch):
        # Above the rank-table memory cap, transform must fall back to the
        # per-feature loop with identical results.
        monkeypatch.setattr(FeatureBinner, "_MAX_RANK_TABLE_BYTES", 100)
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 6))
        binner = FeatureBinner(max_bins=16).fit(X)
        assert binner._rank_to_bin_ is None
        np.testing.assert_array_equal(binner.transform(X), self._loop_transform(binner, X))
