"""Gradient boosting over histogram regression trees.

:class:`GradientBoostingRegressor` works on numeric matrices;
:class:`TabularBoostingRegressor` wraps it for mixed-type
:class:`~repro.tabular.table.Table` inputs, target-encoding categorical
columns the way CatBoost does.  The latter is what the MLEF metric uses.
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional

import numpy as np

from repro.boosting.target_encoding import OrderedTargetEncoder
from repro.boosting.tree import FeatureBinner, RegressionTree
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, as_rng, derive_seed
from repro.utils.validation import check_array, check_fitted


class GradientBoostingRegressor:
    """Squared-error gradient boosting on dense numeric features.

    Parameters mirror the CatBoost configuration used in the paper
    (200 iterations, depth 10, learning rate 1.0 on RMSE loss); the defaults
    here are gentler so the regressor is robust across dataset sizes, and the
    experiment harness overrides them to the paper values when regenerating
    Table I.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_leaf: int = 20,
        subsample: float = 1.0,
        max_bins: int = 64,
        lambda_reg: float = 1.0,
        *,
        seed: SeedLike = None,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be at least 1")
        if not 0.0 < learning_rate <= 10.0:
            raise ValueError("learning_rate must be in (0, 10]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.max_bins = int(max_bins)
        self.lambda_reg = float(lambda_reg)
        self._rng = as_rng(seed)
        self.binner_: Optional[FeatureBinner] = None
        self.trees_: Optional[List[RegressionTree]] = None
        self.base_prediction_: Optional[float] = None
        self.train_losses_: Optional[List[float]] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X = check_array(X, ndim=2, dtype=np.float64, name="X")
        y = check_array(y, ndim=1, dtype=np.float64, name="y")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y must have the same number of rows")
        if X.shape[0] < 2:
            raise ValueError("need at least 2 training rows")

        self.binner_ = FeatureBinner(max_bins=self.max_bins)
        binned = self.binner_.fit_transform(X)
        n_bins = [self.binner_.n_bins(j) for j in range(X.shape[1])]
        # The flattened (feature, bin) histogram index only depends on the
        # binned matrix, so build it once for the whole ensemble.
        flat = RegressionTree.flatten_bins(binned, n_bins)

        self.base_prediction_ = float(y.mean())
        prediction = np.full(y.shape[0], self.base_prediction_)
        trees: List[RegressionTree] = []
        losses: List[float] = []

        n = y.shape[0]
        for _ in range(self.n_estimators):
            residuals = y - prediction
            losses.append(float(np.mean(residuals ** 2)))
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                lambda_reg=self.lambda_reg,
            )
            if self.subsample < 1.0:
                idx = self._rng.choice(n, size=max(2, int(round(self.subsample * n))), replace=False)
                tree.fit(binned[idx], residuals[idx], n_bins, flat_index=flat[idx])
                update = tree.predict(binned)
            else:
                # The tree was fit on every row, so its own partition already
                # holds each row's leaf value; only a subsampled tree has rows
                # it never saw and must route them with predict().
                update = tree.fit_predict(binned, residuals, n_bins, flat_index=flat)
            prediction = prediction + self.learning_rate * update
            trees.append(tree)

        self.trees_ = trees
        self.train_losses_ = losses
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        check_fitted(self, ["trees_", "binner_", "base_prediction_"])
        X = check_array(X, ndim=2, dtype=np.float64, name="X")
        binned = self.binner_.transform(X)
        prediction = np.full(X.shape[0], self.base_prediction_)
        for tree in self.trees_:
            prediction = prediction + self.learning_rate * tree.predict(binned)
        return prediction

    def score_mse(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean squared error on ``(X, y)``."""
        y = np.asarray(y, dtype=np.float64)
        return float(np.mean((self.predict(X) - y) ** 2))


class TabularBoostingRegressor:
    """Boosting regressor over a mixed-type table (the MLEF workhorse).

    Numerical feature columns are used as-is; categorical feature columns are
    encoded with CatBoost-style ordered target statistics during training and
    full-dataset statistics at prediction time, on the table's category codes.
    ``seed`` is an int (numpy integers included) or ``None``; the booster and
    each column's encoder are seeded from it by name, so a Generator or
    SeedSequence raises ``TypeError``.
    """

    def __init__(
        self,
        target_column: str,
        *,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_leaf: int = 20,
        subsample: float = 1.0,
        max_bins: int = 64,
        log_target: bool = False,
        seed: Optional[int] = None,
    ) -> None:
        self.target_column = target_column
        self.log_target = bool(log_target)
        self._seed = None if seed is None else operator.index(seed)
        self.model = GradientBoostingRegressor(
            n_estimators=n_estimators,
            learning_rate=learning_rate,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            subsample=subsample,
            max_bins=max_bins,
            seed=derive_seed(self._seed, "gbdt"),
        )
        self.encoders_: Optional[Dict[str, OrderedTargetEncoder]] = None
        self.feature_columns_: Optional[List[str]] = None

    # -- feature assembly ------------------------------------------------------
    def _target_of(self, table: Table) -> np.ndarray:
        y = np.asarray(table[self.target_column], dtype=np.float64)
        if self.log_target:
            y = np.log(np.maximum(y, 1e-12))
        return y

    def _assemble(self, table: Table, *, fit: bool, target: Optional[np.ndarray]) -> np.ndarray:
        columns: List[np.ndarray] = []
        for col in table.schema:
            if col.name == self.target_column:
                continue
            if col.is_numerical:
                columns.append(np.asarray(table[col.name], dtype=np.float64))
            else:
                column = table.categorical_column(col.name)
                if fit:
                    encoder = OrderedTargetEncoder(seed=derive_seed(self._seed, "te", col.name))
                    columns.append(encoder.fit_transform_ordered(column, target))
                    self.encoders_[col.name] = encoder
                else:
                    columns.append(self.encoders_[col.name].transform(column))
        return np.column_stack(columns) if columns else np.empty((len(table), 0))

    # -- API --------------------------------------------------------------------
    def fit(self, table: Table) -> "TabularBoostingRegressor":
        if self.target_column not in table.schema:
            raise KeyError(f"target column {self.target_column!r} not in table")
        y = self._target_of(table)
        self.encoders_ = {}
        self.feature_columns_ = [c for c in table.columns if c != self.target_column]
        X = self._assemble(table, fit=True, target=y)
        self.model.fit(X, y)
        return self

    def predict(self, table: Table) -> np.ndarray:
        check_fitted(self, ["encoders_", "feature_columns_"])
        X = self._assemble(table, fit=False, target=None)
        pred = self.model.predict(X)
        return pred

    def score_mse(self, table: Table) -> float:
        """MSE on the (possibly log-transformed) target of ``table``."""
        y = self._target_of(table)
        return float(np.mean((self.predict(table) - y) ** 2))
