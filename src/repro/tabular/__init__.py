"""Column-oriented tabular data substrate.

The paper works on mixed-type tabular job records (categorical + numerical
columns).  Rather than depending on pandas, the library ships a small,
numpy-backed column store: :class:`~repro.tabular.table.Table` plus an explicit
:class:`~repro.tabular.schema.TableSchema`, preprocessing transforms
(Gaussian quantile transform, scalers, one-hot encoding) and split utilities.

The design mirrors what the generative models need:

* columns are homogeneous numpy arrays: ``float64`` for numerical columns
  and dictionary-encoded
  :class:`~repro.tabular.table.CategoricalColumn` objects (``int32`` codes
  + a tuple-of-str vocabulary) for categorical ones, so per-column
  vectorised operations stay cheap;
* the schema is carried alongside the data, so models and metrics never guess
  column types;
* every transform is invertible (``transform`` / ``inverse_transform``) so a
  model trained in the encoded space can emit records in the original space.

The columnar data plane
-----------------------
Categoricals are **codes end to end, decoded only at the edge**: a table
stores each categorical column once as dictionary codes, and every internal
consumer — the label/one-hot encoders, the mixed-space model encoders, the
distribution and association metrics, the NPZ format and the serving
pool's pickled chunk results — computes on ``table.codes(name)`` /
``table.codes_matrix()`` against ``table.vocab(name)`` without
materialising strings.  String arrays
exist only at the API edge (``table[name]``, ``to_dict``, ``row``, CSV),
where :meth:`CategoricalColumn.decode` lazily builds and caches them.  The
refactor is bit-invisible: every codes path reproduces the old string-path
arithmetic exactly (``tests/test_perf_equivalence.py``,
``tests/test_sampling_equivalence.py``), and
``benchmarks/BENCH_hotpaths.json`` pins the payoff via the
``encode_categorical_codes`` kernel.  The mixed-type nearest-neighbour
kernel that SMOTE and DCR share (:mod:`repro.tabular.neighbors`) searches
the same codes directly instead of a one-hot embedding.
"""

from repro.tabular.schema import ColumnKind, ColumnSchema, TableSchema
from repro.tabular.table import CategoricalColumn, Table
from repro.tabular.encoding import LabelEncoder, OneHotEncoder, FrequencyTable
from repro.tabular.transforms import (
    ColumnTransform,
    GaussianQuantileTransform,
    IdentityTransform,
    LogTransform,
    MinMaxScaler,
    StandardScaler,
    TransformPipeline,
)
from repro.tabular.mixed import MixedEncoder, EncodedMatrix
from repro.tabular.splits import train_test_split, temporal_split, kfold_indices
from repro.tabular.io import read_csv, write_csv, read_npz, write_npz

__all__ = [
    "CategoricalColumn",
    "ColumnKind",
    "ColumnSchema",
    "TableSchema",
    "Table",
    "LabelEncoder",
    "OneHotEncoder",
    "FrequencyTable",
    "ColumnTransform",
    "GaussianQuantileTransform",
    "IdentityTransform",
    "LogTransform",
    "MinMaxScaler",
    "StandardScaler",
    "TransformPipeline",
    "MixedEncoder",
    "EncodedMatrix",
    "train_test_split",
    "temporal_split",
    "kfold_indices",
    "read_csv",
    "write_csv",
    "read_npz",
    "write_npz",
]
