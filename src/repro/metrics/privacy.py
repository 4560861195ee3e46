"""Privacy metrics: Distance to Closest Record (DCR).

For every synthetic row we find the closest row of the *training* data in a
mixed-type metric space and report the mean of those nearest distances.
Numerical columns are min-max scaled by the training table's ranges; each
mismatched categorical column adds 1 to the squared distance (the metric of
one-hot blocks scaled by 1/√2).  Small DCR means synthetic rows hug the
training data — good fidelity but a privacy risk; the paper reads higher DCR
as better privacy.

The search is :func:`repro.tabular.neighbors.mixed_knn` on the tables'
dictionary codes: no strings are decoded and no one-hot matrix is built.
``chunk_size`` bounds how many synthetic rows are searched at once, so it
limits memory only.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.tabular.neighbors import mixed_knn
from repro.tabular.table import Table


def _embed(
    training: Table, synthetic: Table, columns: Optional[Sequence[str]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Scaled numericals and shared-vocabulary codes of both tables.

    Numericals are min-max scaled by the training ranges.  Synthetic codes
    are remapped onto the training vocabulary; a category the training table
    never uses gets a code no training row has.
    """
    cols = list(columns) if columns is not None else training.columns
    num = [c for c in cols if training.schema.kind_of(c).value == "numerical"]
    cat = [c for c in cols if c not in num]
    train_num = np.empty((len(training), len(num)))
    synth_num = np.empty((len(synthetic), len(num)))
    for j, name in enumerate(num):
        ref = np.asarray(training[name], dtype=np.float64)
        lo, hi = float(ref.min()), float(ref.max())
        span = hi - lo if hi > lo else 1.0
        train_num[:, j] = (ref - lo) / span
        synth_num[:, j] = (np.asarray(synthetic[name], dtype=np.float64) - lo) / span
    train_codes = np.empty((len(training), len(cat)), dtype=np.int32)
    synth_codes = np.empty((len(synthetic), len(cat)), dtype=np.int32)
    for j, name in enumerate(cat):
        vocab = training.vocab(name)
        code_of = {value: i for i, value in enumerate(vocab)}
        remap = np.array([code_of.get(v, len(vocab)) for v in synthetic.vocab(name)], dtype=np.int32)
        train_codes[:, j] = training.codes(name)
        synth_codes[:, j] = remap[synthetic.codes(name)]
    return train_num, train_codes, synth_num, synth_codes


def nearest_record_distances(
    training: Table,
    synthetic: Table,
    columns: Optional[Sequence[str]] = None,
    *,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """Distance from each synthetic row to its nearest training row.

    ``chunk_size`` bounds how many synthetic rows are searched at once;
    results are identical to the unchunked computation.
    """
    if len(training) == 0 or len(synthetic) == 0:
        raise ValueError("both tables must be non-empty")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    train_num, train_codes, synth_num, synth_codes = _embed(training, synthetic, columns)
    d2, _ = mixed_knn(
        train_num, train_codes, synth_num, synth_codes, 1, mismatch_cost=1.0, chunk_size=chunk_size
    )
    return np.sqrt(d2[:, 0])


def distance_to_closest_record(
    training: Table,
    synthetic: Table,
    columns: Optional[Sequence[str]] = None,
    *,
    normalize_by_dimension: bool = True,
    chunk_size: Optional[int] = None,
) -> float:
    """Mean DCR of the synthetic table with respect to the training table.

    ``normalize_by_dimension`` divides by the square root of the number of
    feature columns so DCR stays comparable across schemas of different width.
    """
    distances = nearest_record_distances(training, synthetic, columns, chunk_size=chunk_size)
    value = float(distances.mean())
    if normalize_by_dimension:
        n_cols = len(columns) if columns is not None else len(training.columns)
        value /= float(np.sqrt(max(n_cols, 1)))
    return float(value)


def duplicate_fraction(
    training: Table,
    synthetic: Table,
    columns: Optional[Sequence[str]] = None,
    *,
    tol: float = 1e-9,
    chunk_size: Optional[int] = None,
) -> float:
    """Fraction of synthetic rows that exactly coincide with a training row.

    A complementary privacy indicator: SMOTE-style interpolators rarely emit
    exact duplicates, while memorising models do.
    """
    distances = nearest_record_distances(training, synthetic, columns, chunk_size=chunk_size)
    return float(np.mean(distances <= tol))
