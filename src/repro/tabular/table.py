"""A small column-oriented table with a dictionary-encoded categorical store.

:class:`Table` stores each column as a typed buffer — ``float64`` numpy
arrays for numerical columns, :class:`CategoricalColumn` (``int32`` codes
plus a per-column string vocabulary) for categorical ones — alongside a
:class:`~repro.tabular.schema.TableSchema`.  It supports the handful of
operations the rest of the library needs (selection, masking, sampling,
concatenation, per-column summaries) and nothing else; it is deliberately
not a pandas replacement.

The codes-end-to-end contract
-----------------------------
Categorical data lives as integer codes from construction to consumption:

* ``Table.codes(name)`` / ``Table.vocab(name)`` / ``Table.codes_matrix()``
  expose the dictionary-encoded form; encoders, model samplers and metrics
  consume codes directly, so no ``astype(str)``/``np.unique`` re-encoding
  happens at model boundaries.
* **Decode at the edge**: strings materialise only where a consumer really
  needs labels — ``__getitem__`` (the backward-compatible column view),
  ``to_records``, CSV writing, fingerprinting.  The decode is lazy and
  cached per column, so codes-only pipelines never pay it.
* Summaries (``value_counts``, ``nunique``) count via ``np.bincount`` on
  codes, with results ordered exactly as the historical string-based
  implementations produced them.
* Producers that draw categories as indices into a catalog (the PanDA
  generator and funnel) build columns with
  :meth:`CategoricalColumn.from_codes`, so no per-row string exists
  between the draw and the decode edge.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.tabular.schema import ColumnKind, ColumnSchema, TableSchema
from repro.utils.rng import SeedLike, as_rng

ArrayLike = Union[np.ndarray, Sequence]

#: Canonical dtype of categorical codes.
CODES_DTYPE = np.int32


class CategoricalColumn:
    """A dictionary-encoded categorical column: ``int32`` codes + vocabulary.

    ``codes[i]`` indexes into ``vocab`` (a tuple of unique strings); the
    string form exists only on demand via :meth:`decode` (cached).  The
    column is immutable by contract — every operation returns a new column
    sharing the vocabulary.
    """

    __slots__ = ("codes", "vocab", "_decoded")

    def __init__(self, codes: ArrayLike, vocab: Sequence[str]) -> None:
        arr = np.asarray(codes, dtype=CODES_DTYPE)
        if arr.ndim != 1:
            raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
        self.vocab: Tuple[str, ...] = tuple(str(v) for v in vocab)
        if len(set(self.vocab)) != len(self.vocab):
            raise ValueError("categorical vocabulary entries must be unique")
        if arr.size and (arr.min() < 0 or arr.max() >= len(self.vocab)):
            raise ValueError(
                f"codes out of range for a vocabulary of {len(self.vocab)} entries"
            )
        self.codes = arr
        self._decoded: Optional[np.ndarray] = None

    @classmethod
    def _wrap(cls, codes: np.ndarray, vocab: Tuple[str, ...]) -> "CategoricalColumn":
        """Internal fast path: adopt pre-validated codes without re-checking."""
        col = cls.__new__(cls)
        col.codes = codes
        col.vocab = vocab
        col._decoded = None
        return col

    @classmethod
    def from_values(cls, values: ArrayLike) -> "CategoricalColumn":
        """Factorize raw values (any dtype) into codes + sorted vocabulary."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
        if arr.dtype.kind != "U":
            arr = arr.astype(str)
        vocab, codes = np.unique(arr, return_inverse=True)
        col = cls._wrap(codes.astype(CODES_DTYPE), tuple(vocab.tolist()))
        col._decoded = arr  # exact original strings; saves the re-gather
        return col

    @classmethod
    def from_codes(cls, codes: ArrayLike, labels: Sequence[str]) -> "CategoricalColumn":
        """The column of ``labels[codes]``, built without per-row strings.

        ``labels`` is a catalog: any order, unused and repeated entries
        allowed.  The result equals ``from_values(labels[codes])`` — the
        sorted vocabulary of the labels present, equal labels merged as
        ``np.unique`` merges them — but only the catalog is sorted, and
        the rows cost one scatter and one gather of integer codes.
        """
        idx = np.asarray(codes)
        if idx.ndim != 1:
            raise ValueError(f"columns must be 1-D, got shape {idx.shape}")
        names = np.asarray(labels, dtype=str)
        present = np.zeros(names.size, dtype=bool)
        present[idx] = True
        vocab, inverse = np.unique(names[present], return_inverse=True)
        remap = np.zeros(names.size, dtype=CODES_DTYPE)
        remap[present] = inverse
        return cls._wrap(remap[idx], tuple(vocab.tolist()))

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_rows(self) -> int:
        return len(self)

    def __array__(self, dtype=None, copy=None):  # numpy interop = decode edge
        decoded = self.decode()
        return decoded if dtype is None else decoded.astype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CategoricalColumn(rows={len(self)}, vocab={len(self.vocab)})"

    # -- decode (the edge) -------------------------------------------------
    def vocab_array(self) -> np.ndarray:
        """The vocabulary as a unicode numpy array (empty-safe)."""
        if not self.vocab:
            return np.empty(0, dtype="<U1")
        return np.asarray(self.vocab, dtype=str)

    def decode(self) -> np.ndarray:
        """Materialise the string form (lazy, cached; treat as read-only)."""
        if self._decoded is None:
            if self.codes.size == 0:
                width = max((len(v) for v in self.vocab), default=1)
                self._decoded = np.empty(0, dtype=f"<U{max(width, 1)}")
            else:
                self._decoded = self.vocab_array()[self.codes]
        return self._decoded

    # -- transforms (codes-space, vocab shared) ----------------------------
    def take(self, indices: ArrayLike) -> "CategoricalColumn":
        """Rows at ``indices`` (fancy or boolean indexing, order preserving)."""
        return CategoricalColumn._wrap(self.codes[indices], self.vocab)

    @staticmethod
    def concat(columns: Sequence["CategoricalColumn"]) -> "CategoricalColumn":
        """Vertically concatenate columns; vocabularies are unioned if needed."""
        if not columns:
            raise ValueError("concat requires at least one column")
        vocab = columns[0].vocab
        if all(c.vocab == vocab for c in columns[1:]):
            return CategoricalColumn._wrap(
                np.concatenate([c.codes for c in columns]), vocab
            )
        merged = np.unique(np.concatenate([c.vocab_array() for c in columns]))
        parts = []
        for c in columns:
            remap = np.searchsorted(merged, c.vocab_array()).astype(CODES_DTYPE)
            parts.append(remap[c.codes])
        return CategoricalColumn._wrap(np.concatenate(parts), tuple(merged.tolist()))

    def equals(self, other: "CategoricalColumn") -> bool:
        """Value equality (string-wise; codes compared directly on shared vocab)."""
        if self.vocab == other.vocab:
            return bool(np.array_equal(self.codes, other.codes))
        return bool(np.array_equal(self.decode(), other.decode()))


def _as_column(
    values: ArrayLike, kind: ColumnKind
) -> Union[np.ndarray, CategoricalColumn]:
    """Coerce ``values`` into the canonical storage for its column kind."""
    if kind is ColumnKind.NUMERICAL:
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"columns must be 1-D, got shape {arr.shape}")
        return arr
    if isinstance(values, CategoricalColumn):
        return values
    # Categorical entries are dictionary-encoded so that integer-coded,
    # bytes-coded and string-coded categories behave identically downstream.
    return CategoricalColumn.from_values(values)


class Table:
    """Immutable-ish column-oriented table with an explicit schema."""

    def __init__(self, data: Mapping[str, ArrayLike], schema: TableSchema):
        if set(data.keys()) != set(schema.names):
            raise ValueError(
                "data columns do not match schema: "
                f"data={sorted(data.keys())}, schema={sorted(schema.names)}"
            )
        self.schema = schema
        self._columns: Dict[str, Union[np.ndarray, CategoricalColumn]] = {}
        n_rows: Optional[int] = None
        for col in schema:
            arr = _as_column(data[col.name], col.kind)
            if n_rows is None:
                n_rows = len(arr)
            elif len(arr) != n_rows:
                raise ValueError(
                    f"column {col.name!r} has {len(arr)} rows, expected {n_rows}"
                )
            self._columns[col.name] = arr
        self._n_rows = int(n_rows or 0)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return self._n_rows

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def n_columns(self) -> int:
        return len(self.schema)

    @property
    def shape(self) -> Tuple[int, int]:
        return (self._n_rows, self.n_columns)

    @property
    def columns(self) -> List[str]:
        return self.schema.names

    def __contains__(self, name: object) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        """Return the column as a numpy array (treat it as read-only).

        Categorical columns decode to their string form here — this is the
        backward-compatible *edge* view; use :meth:`codes` /
        :meth:`categorical_column` for the dictionary-encoded form.  The
        decode is lazy and cached, so codes-only consumers never pay it.
        """
        try:
            col = self._columns[name]
        except KeyError:
            raise KeyError(f"no column named {name!r}; available: {self.columns}") from None
        return col.decode() if isinstance(col, CategoricalColumn) else col

    def column(self, name: str) -> np.ndarray:
        return self[name]

    # -- dictionary-encoded accessors --------------------------------------
    def categorical_column(self, name: str) -> CategoricalColumn:
        """The dictionary-encoded store of a categorical column."""
        if self.schema.kind_of(name) is not ColumnKind.CATEGORICAL:
            raise ValueError(f"column {name!r} is not categorical")
        col = self._columns[name]
        assert isinstance(col, CategoricalColumn)
        return col

    def codes(self, name: str) -> np.ndarray:
        """Integer codes of a categorical column (``int32``; read-only)."""
        return self.categorical_column(name).codes

    def vocab(self, name: str) -> Tuple[str, ...]:
        """Vocabulary of a categorical column (code ``i`` → ``vocab[i]``)."""
        return self.categorical_column(name).vocab

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        if self.schema != other.schema or len(self) != len(other):
            return False
        for c in self.columns:
            a, b = self._columns[c], other._columns[c]
            if isinstance(a, CategoricalColumn) and isinstance(b, CategoricalColumn):
                if not a.equals(b):
                    return False
            elif not np.array_equal(self[c], other[c]):
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ", ".join(f"{c.name}:{c.kind.value[0].upper()}" for c in self.schema)
        return f"Table(rows={self._n_rows}, columns=[{kinds}])"

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_records(
        cls, records: Sequence[Mapping[str, object]], schema: TableSchema
    ) -> "Table":
        """Build a table from a list of dict-like records."""
        data = {name: [rec[name] for rec in records] for name in schema.names}
        return cls(data, schema)

    @classmethod
    def empty(cls, schema: TableSchema) -> "Table":
        """Return a zero-row table with the given schema."""
        return cls({name: [] for name in schema.names}, schema)

    # -- row-wise access ---------------------------------------------------
    def row(self, index: int) -> Dict[str, object]:
        """Return a single row as a plain dict (slow; use for debugging/tests)."""
        if not -self._n_rows <= index < self._n_rows:
            raise IndexError(f"row index {index} out of range for {self._n_rows} rows")
        return {name: self[name][index] for name in self.columns}

    def to_records(self) -> List[Dict[str, object]]:
        """Materialise all rows as dicts (slow; intended for small tables)."""
        return [self.row(i) for i in range(self._n_rows)]

    def to_dict(self) -> Dict[str, np.ndarray]:
        """Return the columns as plain numpy arrays (categoricals decoded)."""
        return {name: self[name] for name in self.columns}

    # -- selection ---------------------------------------------------------
    def select(self, names: Iterable[str]) -> "Table":
        """Return a table restricted to ``names`` (order preserving)."""
        names = list(names)
        return Table({n: self._columns[n] for n in names}, self.schema.select(names))

    def drop(self, names: Iterable[str]) -> "Table":
        """Return a table without the given columns."""
        schema = self.schema.drop(names)
        return Table({n: self._columns[n] for n in schema.names}, schema)

    def with_column(
        self, name: str, values: ArrayLike, kind: ColumnKind | str
    ) -> "Table":
        """Return a table with an extra (or replaced) column."""
        kind = ColumnKind(kind)
        if name in self.schema:
            schema = TableSchema(
                [
                    ColumnSchema(name, kind) if c.name == name else c
                    for c in self.schema.columns
                ]
            )
        else:
            schema = self.schema.with_column(ColumnSchema(name, kind))
        data = dict(self._columns)
        data[name] = values
        return Table(data, schema)

    def take(self, indices: ArrayLike) -> "Table":
        """Return the rows at ``indices`` (fancy indexing, order preserving)."""
        idx = np.asarray(indices, dtype=np.intp)
        return Table({n: col.take(idx) if isinstance(col, CategoricalColumn) else col[idx]
                      for n, col in self._columns.items()}, self.schema)

    def mask(self, mask: ArrayLike) -> "Table":
        """Return the rows where ``mask`` is true."""
        m = np.asarray(mask, dtype=bool)
        if m.shape != (self._n_rows,):
            raise ValueError(f"mask shape {m.shape} does not match table length {self._n_rows}")
        return Table({n: col.take(m) if isinstance(col, CategoricalColumn) else col[m]
                      for n, col in self._columns.items()}, self.schema)

    def head(self, n: int = 5) -> "Table":
        """Return the first ``n`` rows."""
        return self.take(np.arange(min(n, self._n_rows)))

    def sample(
        self, n: int, *, replace: bool = False, seed: SeedLike = None
    ) -> "Table":
        """Return a uniformly sampled subset of ``n`` rows."""
        rng = as_rng(seed)
        if not replace and n > self._n_rows:
            raise ValueError(
                f"cannot sample {n} rows without replacement from {self._n_rows}"
            )
        idx = rng.choice(self._n_rows, size=n, replace=replace)
        return self.take(idx)

    def shuffle(self, seed: SeedLike = None) -> "Table":
        """Return a row-shuffled copy."""
        rng = as_rng(seed)
        return self.take(rng.permutation(self._n_rows))

    # -- combination -------------------------------------------------------
    @staticmethod
    def concat(tables: Sequence["Table"]) -> "Table":
        """Vertically concatenate tables sharing the same schema."""
        if not tables:
            raise ValueError("concat requires at least one table")
        schema = tables[0].schema
        for t in tables[1:]:
            if t.schema != schema:
                raise ValueError("all tables must share the same schema to concat")
        data: Dict[str, Union[np.ndarray, CategoricalColumn]] = {}
        for col in schema:
            parts = [t._columns[col.name] for t in tables]
            if col.kind is ColumnKind.CATEGORICAL:
                data[col.name] = CategoricalColumn.concat(parts)
            else:
                data[col.name] = np.concatenate(parts)
        return Table(data, schema)

    # -- matrix views ------------------------------------------------------
    def numerical_matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack numerical columns into an ``(n_rows, n_cols)`` float matrix."""
        cols = list(columns) if columns is not None else self.schema.numerical
        for c in cols:
            if self.schema.kind_of(c) is not ColumnKind.NUMERICAL:
                raise ValueError(f"column {c!r} is not numerical")
        if not cols:
            return np.empty((self._n_rows, 0), dtype=np.float64)
        return np.column_stack([self._columns[c] for c in cols])

    def categorical_matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack categorical columns into an ``(n_rows, n_cols)`` string matrix.

        This is a decode edge; prefer :meth:`codes_matrix` for model-side
        consumers that only need the category identity.
        """
        cols = list(columns) if columns is not None else self.schema.categorical
        for c in cols:
            if self.schema.kind_of(c) is not ColumnKind.CATEGORICAL:
                raise ValueError(f"column {c!r} is not categorical")
        if not cols:
            return np.empty((self._n_rows, 0), dtype="<U1")
        return np.column_stack([self[c] for c in cols])

    def codes_matrix(self, columns: Optional[Sequence[str]] = None) -> np.ndarray:
        """Stack categorical columns into an ``(n_rows, n_cols)`` int32 code matrix.

        The dictionary-encoded sibling of :meth:`categorical_matrix`: each
        column's codes index its own :meth:`vocab`.  No strings materialise.
        """
        cols = list(columns) if columns is not None else self.schema.categorical
        for c in cols:
            if self.schema.kind_of(c) is not ColumnKind.CATEGORICAL:
                raise ValueError(f"column {c!r} is not categorical")
        if not cols:
            return np.empty((self._n_rows, 0), dtype=CODES_DTYPE)
        return np.column_stack([self._columns[c].codes for c in cols])

    # -- summaries ---------------------------------------------------------
    def value_counts(
        self, name: str, *, normalize: bool = False
    ) -> Dict[str, Union[int, float]]:
        """Return ``{category: count}`` (or ``{category: frequency}``).

        Counts are ``int`` when ``normalize`` is false and ``float``
        frequencies otherwise, ordered by descending count with ties broken
        lexicographically — computed via ``np.bincount`` on the codes, never
        by re-uniquing strings.
        """
        col = self.categorical_column(name)
        vocab_arr = col.vocab_array()
        counts = np.bincount(col.codes, minlength=vocab_arr.size)
        lex = np.argsort(vocab_arr, kind="stable")
        values, counts = vocab_arr[lex], counts[lex]
        present = counts > 0
        values, counts = values[present], counts[present]
        order = np.argsort(-counts, kind="stable")
        total = counts.sum() if normalize else 1
        return {
            str(values[i]): (float(counts[i] / total) if normalize else int(counts[i]))
            for i in order
        }

    def nunique(self, name: str) -> int:
        """Number of distinct values in a column."""
        col = self._columns[name]
        if isinstance(col, CategoricalColumn):
            return int(np.unique(col.codes).size)
        return int(np.unique(col).size)

    def describe_numeric(self, name: str) -> Dict[str, float]:
        """Summary statistics for a numerical column."""
        if self.schema.kind_of(name) is not ColumnKind.NUMERICAL:
            raise ValueError(f"describe_numeric expects a numerical column, got {name!r}")
        col = self._columns[name]
        if col.size == 0:
            return {k: float("nan") for k in ("mean", "std", "min", "p25", "median", "p75", "max")}
        return {
            "mean": float(np.mean(col)),
            "std": float(np.std(col)),
            "min": float(np.min(col)),
            "p25": float(np.percentile(col, 25)),
            "median": float(np.median(col)),
            "p75": float(np.percentile(col, 75)),
            "max": float(np.max(col)),
        }

    def profile(self) -> List[Dict[str, object]]:
        """Per-column profile (name, kind, unique count) — paper Fig. 3(a)."""
        rows = []
        for col in self.schema:
            rows.append(
                {
                    "name": col.name,
                    "kind": col.kind.value,
                    "n_unique": self.nunique(col.name),
                }
            )
        return rows
