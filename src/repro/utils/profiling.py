"""The benchmark registry behind the perf-regression harness.

:meth:`BenchmarkRegistry.measure` is the one way a hot-path kernel is
timed: the variants of one kernel at one problem size (a seed baseline and
an optimized implementation) run in alternating rounds with equal repeats,
and each keeps its best wall-clock time.  Records are grouped by
``(kernel, variant, size)`` so the benchmark scripts can derive speedups.
Results round-trip through JSON (``benchmarks/BENCH_hotpaths.json``) so
slowdowns can be detected across commits by ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.utils.parallel import openblas_threads, visible_cpus


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

    :meth:`measure` times a kernel's variants against each other and stores
    each one's best wall-clock time (the conventional low-noise estimator
    for CPU-bound kernels).
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
        size: str,
        runs: Mapping[str, Callable[[], object]],
        *,
        repeats: int = 1,
    ) -> Dict[str, BenchmarkRecord]:
        """Time the ``{variant: callable}`` in ``runs`` and record each one's best.

        Each of the ``repeats`` rounds times every variant once, in order, so
        host drift hits all variants alike and every record carries the same
        ``repeats``.  Returns ``{variant: record}``, so a kernel can attach
        ``extra`` side metrics to a record.
        """
        if repeats < 1:
            raise ValueError("repeats must be at least 1")
        best = dict.fromkeys(runs, float("inf"))
        for _ in range(repeats):
            for variant, run in runs.items():
                start = time.perf_counter()
                run()
                best[variant] = min(best[variant], time.perf_counter() - start)
        return {
            variant: self.record(kernel, variant, size, seconds, repeats=repeats)
            for variant, seconds in best.items()
        }

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
