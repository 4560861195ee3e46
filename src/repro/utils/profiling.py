"""Lightweight wall-clock profiling: a ``timer`` context manager and a
benchmark registry used by the perf-regression harness.

The registry groups measurements by ``(kernel, variant, size)`` so the
benchmark scripts can record both a seed (baseline) implementation and an
optimized implementation of the same kernel and derive speedups.  Results
round-trip through JSON (``benchmarks/BENCH_hotpaths.json``) so slowdowns can
be detected across commits by ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.utils.parallel import openblas_threads, visible_cpus


@dataclass
class TimerResult:
    """Mutable holder filled in when a :func:`timer` block exits."""

    label: str = ""
    seconds: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimerResult(label={self.label!r}, seconds={self.seconds:.6f})"


@contextmanager
def timer(label: str = "") -> Iterator[TimerResult]:
    """Time a ``with`` block with ``time.perf_counter``.

    >>> with timer("fit") as t:
    ...     _ = sum(range(1000))
    >>> t.seconds > 0
    True
    """
    result = TimerResult(label=label)
    start = time.perf_counter()
    try:
        yield result
    finally:
        result.seconds = time.perf_counter() - start


@dataclass
class BenchmarkRecord:
    """One timed measurement of a kernel variant at a problem size.

    ``extra`` carries optional side metrics that the kernel measures along
    with wall clock (e.g. the tracing benchmark records the spans one
    request produces); they round-trip through the JSON baseline so gates
    can assert on them.
    """

    kernel: str
    variant: str  # "seed" or "optimized" (free-form otherwise)
    size: str  # human-readable problem size, e.g. "n=20000"
    seconds: float
    repeats: int = 1
    extra: Optional[Dict[str, float]] = None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "kernel": self.kernel,
            "variant": self.variant,
            "size": self.size,
            "seconds": self.seconds,
            "repeats": self.repeats,
        }
        if self.extra:
            payload["extra"] = dict(self.extra)
        return payload


class BenchmarkRegistry:
    """Collects :class:`BenchmarkRecord` entries and serialises them to JSON.

    ``measure`` runs a callable ``repeats`` times and stores the best
    wall-clock time (the conventional low-noise estimator for CPU-bound
    kernels).
    """

    def __init__(self) -> None:
        self.records: List[BenchmarkRecord] = []
        #: The measuring machine; :meth:`from_json` restores the file's.
        #: ``cores`` (:func:`~repro.utils.parallel.visible_cpus`) and
        #: ``blas_threads`` (this process's OpenBLAS thread count, the largest
        #: over the loaded libraries, ``None`` without one) say what core
        #: budget the pool kernels split.
        self.meta: Dict[str, object] = {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cores": visible_cpus(),
            "blas_threads": max(openblas_threads().values(), default=None),
        }

    def record(
        self,
        kernel: str,
        variant: str,
        size: str,
        seconds: float,
        *,
        repeats: int = 1,
        extra: Optional[Dict[str, float]] = None,
    ) -> BenchmarkRecord:
        rec = BenchmarkRecord(
            kernel, variant, size, float(seconds), repeats=int(repeats), extra=extra
        )
        self.records.append(rec)
        return rec

    def measure(
        self,
        kernel: str,
        variant: str,
        size: str,
        fn: Callable[[], object],
        *,
        repeats: int = 1,
        extra: Optional[Dict[str, float]] = None,
    ) -> BenchmarkRecord:
        """Run ``fn`` ``repeats`` times and record the best wall-clock time."""
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        best = float("inf")
        for _ in range(repeats):
            with timer() as t:
                fn()
            best = min(best, t.seconds)
        return self.record(kernel, variant, size, best, repeats=repeats, extra=extra)

    # -- queries -----------------------------------------------------------
    def seconds_of(self, kernel: str, variant: str, size: str) -> Optional[float]:
        for rec in self.records:
            if (rec.kernel, rec.variant, rec.size) == (kernel, variant, size):
                return rec.seconds
        return None

    def speedups(self, *, baseline: str = "seed", optimized: str = "optimized") -> Dict[str, Dict[str, float]]:
        """``{kernel: {size: baseline_seconds / optimized_seconds}}``."""
        out: Dict[str, Dict[str, float]] = {}
        for rec in self.records:
            if rec.variant != optimized:
                continue
            base = self.seconds_of(rec.kernel, baseline, rec.size)
            if base is None or rec.seconds <= 0:
                continue
            out.setdefault(rec.kernel, {})[rec.size] = base / rec.seconds
        return out

    # -- serialisation -----------------------------------------------------
    def as_dict(self) -> Dict[str, object]:
        return {
            "meta": dict(self.meta),
            "records": [rec.as_dict() for rec in self.records],
            "speedups": self.speedups(),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str) -> "BenchmarkRegistry":
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        registry = cls()
        registry.meta = dict(payload.get("meta", {}))
        for rec in payload.get("records", []):
            registry.record(
                rec["kernel"],
                rec["variant"],
                rec["size"],
                rec["seconds"],
                repeats=rec.get("repeats", 1),
                extra=rec.get("extra"),
            )
        return registry
