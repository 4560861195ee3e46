"""Shared utilities: seeded RNG handling, validation, logging, parallel map.

These helpers are intentionally tiny and dependency-free; they exist so the
rest of the library never reaches for global random state or ad-hoc argument
checking.
"""

from repro.utils.rng import as_rng, derive_seed
from repro.utils.validation import (
    check_array,
    check_fitted,
    check_positive,
    check_probability,
    check_in_options,
)
from repro.utils.logging import get_logger
from repro.utils.parallel import parallel_map
from repro.utils.profiling import BenchmarkRegistry

__all__ = [
    "BenchmarkRegistry",
    "as_rng",
    "derive_seed",
    "check_array",
    "check_fitted",
    "check_positive",
    "check_probability",
    "check_in_options",
    "get_logger",
    "parallel_map",
]
