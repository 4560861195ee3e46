"""Whole-table encoding for neural generative models.

:class:`MixedEncoder` converts a mixed-type :class:`~repro.tabular.table.Table`
into a single dense float matrix: numerical columns go through a configurable
invertible transform (Gaussian quantile transform by default, matching the
paper), categorical columns become one-hot blocks.  The resulting
:class:`EncodedMatrix` remembers the block layout so models can apply the
right likelihood per block (Gaussian vs. categorical) and decoding can map
samples back to an original-space table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.tabular.encoding import OneHotEncoder
from repro.tabular.schema import ColumnKind, TableSchema
from repro.tabular.table import Table
from repro.tabular.transforms import ColumnTransform, GaussianQuantileTransform
from repro.utils.validation import check_fitted


def default_numerical_transform() -> GaussianQuantileTransform:
    """Factory for the paper's default numerical transform (picklable)."""
    return GaussianQuantileTransform(n_quantiles=1000)


@dataclass
class ColumnBlock:
    """Location of one original column inside the encoded matrix."""

    name: str
    kind: ColumnKind
    start: int
    width: int

    @property
    def stop(self) -> int:
        return self.start + self.width

    @property
    def slice(self) -> slice:
        return slice(self.start, self.stop)


@dataclass
class EncodedMatrix:
    """Dense encoding of a table plus its block layout."""

    values: np.ndarray
    blocks: List[ColumnBlock]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def numerical_indices(self) -> np.ndarray:
        """Flat indices of all numerical features in the encoded matrix."""
        idx: List[int] = []
        for b in self.blocks:
            if b.kind is ColumnKind.NUMERICAL:
                idx.extend(range(b.start, b.stop))
        return np.asarray(idx, dtype=np.intp)

    @property
    def categorical_blocks(self) -> List[ColumnBlock]:
        return [b for b in self.blocks if b.kind is ColumnKind.CATEGORICAL]

    def block(self, name: str) -> ColumnBlock:
        for b in self.blocks:
            if b.name == name:
                return b
        raise KeyError(f"no encoded block for column {name!r}")


class MixedEncoder:
    """Encode/decode a mixed-type table to/from one dense float matrix.

    Parameters
    ----------
    numerical_transform_factory:
        Callable producing a fresh :class:`ColumnTransform` per numerical
        column.  Defaults to the paper's Gaussian quantile transform.
    """

    def __init__(
        self,
        numerical_transform_factory: Optional[Callable[[], ColumnTransform]] = None,
    ) -> None:
        self._factory = numerical_transform_factory or default_numerical_transform
        self.schema_: Optional[TableSchema] = None
        self.numerical_transforms_: Optional[Dict[str, ColumnTransform]] = None
        self.onehot_encoders_: Optional[Dict[str, OneHotEncoder]] = None
        self.blocks_: Optional[List[ColumnBlock]] = None

    # -- fitting -----------------------------------------------------------
    def fit(self, table: Table) -> "MixedEncoder":
        self.schema_ = table.schema
        self.numerical_transforms_ = {}
        self.onehot_encoders_ = {}
        blocks: List[ColumnBlock] = []
        cursor = 0
        for col in table.schema:
            if col.is_numerical:
                tf = self._factory()
                tf.fit(table[col.name])
                self.numerical_transforms_[col.name] = tf
                blocks.append(ColumnBlock(col.name, col.kind, cursor, 1))
                cursor += 1
            else:
                enc = OneHotEncoder()
                enc.fit(table.categorical_column(col.name))
                self.onehot_encoders_[col.name] = enc
                blocks.append(ColumnBlock(col.name, col.kind, cursor, enc.n_categories))
                cursor += enc.n_categories
        self.blocks_ = blocks
        return self

    @property
    def n_features(self) -> int:
        check_fitted(self, ["blocks_"])
        return self.blocks_[-1].stop if self.blocks_ else 0

    def category_cardinalities(self) -> List[int]:
        """Number of categories per categorical column, in schema order."""
        check_fitted(self, ["blocks_"])
        return [b.width for b in self.blocks_ if b.kind is ColumnKind.CATEGORICAL]

    # -- transform ---------------------------------------------------------
    def transform(self, table: Table) -> EncodedMatrix:
        check_fitted(self, ["schema_", "blocks_"])
        if table.schema != self.schema_:
            raise ValueError("table schema does not match the fitted schema")
        parts: List[np.ndarray] = []
        for col in self.schema_:
            if col.is_numerical:
                tf = self.numerical_transforms_[col.name]
                parts.append(tf.transform(table[col.name])[:, None])
            else:
                enc = self.onehot_encoders_[col.name]
                parts.append(enc.transform(table.categorical_column(col.name)))
        values = (
            np.concatenate(parts, axis=1)
            if parts
            else np.empty((len(table), 0), dtype=np.float64)
        )
        return EncodedMatrix(values=values, blocks=list(self.blocks_))

    def fit_transform(self, table: Table) -> EncodedMatrix:
        return self.fit(table).transform(table)

    # -- inverse -----------------------------------------------------------
    def inverse_transform(self, matrix: np.ndarray) -> Table:
        """Decode an encoded matrix (hard one-hots or soft probabilities)."""
        check_fitted(self, ["schema_", "blocks_"])
        mat = np.asarray(matrix, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != self.n_features:
            raise ValueError(
                f"expected matrix with {self.n_features} features, got shape {mat.shape}"
            )
        data: Dict[str, object] = {}
        for block in self.blocks_:
            chunk = mat[:, block.slice]
            if block.kind is ColumnKind.NUMERICAL:
                tf = self.numerical_transforms_[block.name]
                data[block.name] = tf.inverse_transform(chunk[:, 0])
            else:
                enc = self.onehot_encoders_[block.name]
                data[block.name] = enc.inverse_transform_column(chunk)
        return Table(data, self.schema_)

    # -- label-coded view (for SMOTE / boosting) -----------------------------
    def transform_codes(self, table: Table) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(numerical_matrix, categorical_code_matrix)``.

        Numerical columns are transformed to the model space; categorical
        columns become integer codes (one column each).  Used by models that
        prefer ordinal codes over one-hot blocks (SMOTE, gradient boosting).
        """
        check_fitted(self, ["schema_"])
        if table.schema != self.schema_:
            raise ValueError("table schema does not match the fitted schema")
        num_parts: List[np.ndarray] = []
        cat_parts: List[np.ndarray] = []
        for col in self.schema_:
            if col.is_numerical:
                tf = self.numerical_transforms_[col.name]
                num_parts.append(tf.transform(table[col.name])[:, None])
            else:
                enc = self.onehot_encoders_[col.name]
                cat_parts.append(
                    enc.transform_codes(table.categorical_column(col.name))[:, None]
                )
        num = (
            np.concatenate(num_parts, axis=1)
            if num_parts
            else np.empty((len(table), 0))
        )
        cat = (
            np.concatenate(cat_parts, axis=1)
            if cat_parts
            else np.empty((len(table), 0), dtype=np.int64)
        )
        return num, cat

    def inverse_transform_codes(
        self, numerical: np.ndarray, categorical_codes: np.ndarray
    ) -> Table:
        """Inverse of :meth:`transform_codes`."""
        check_fitted(self, ["schema_"])
        num = np.asarray(numerical, dtype=np.float64)
        cat = np.asarray(categorical_codes)
        data: Dict[str, object] = {}
        num_i = 0
        cat_i = 0
        for col in self.schema_:
            if col.is_numerical:
                tf = self.numerical_transforms_[col.name]
                data[col.name] = tf.inverse_transform(num[:, num_i])
                num_i += 1
            else:
                enc = self.onehot_encoders_[col.name]
                codes = np.rint(cat[:, cat_i]).astype(np.int64)
                codes = np.clip(codes, 0, enc.n_categories - 1)
                data[col.name] = enc.label_encoder.decode_column(codes)
                cat_i += 1
        return Table(data, self.schema_)
