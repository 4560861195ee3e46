"""Shared pieces of the repo benchmark: statistics, spans, memory, machine meta.

Everything here is independent of the workloads: the percentile rule, the
in-memory span recorder the benchmark wraps around each call into a layer,
the per-stage breakdown that reconciles to a total through an explicit
``unaccounted`` row, peak resident memory over the process tree, and the
machine description printed beside every result.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class CheckFailed(RuntimeError):
    """An output check failed: the run is reported as incorrect."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- statistics ----------------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100]); +inf propagates."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    below, above = ordered[low], ordered[high]
    if rank == low:
        return below
    if math.isinf(above):
        return math.inf
    return below + (above - below) * (rank - low)


def tail_percentile(n_samples: int, ceiling: float = 95.0) -> float:
    """The highest percentile (at most ``ceiling``) with >= 10 samples beyond it.

    Below 20 samples not even the median has ten beyond it, so no tail is
    supported and the median (50) stands in: the maximum of a handful of
    runs would report noise, not a tail.
    """
    return max(50.0, min(ceiling, 100.0 * (1.0 - 10.0 / n_samples)))


# -- spans -----------------------------------------------------------------------

@dataclass
class SpanRecord:
    name: str
    start: float  # time.perf_counter()
    duration: float


@dataclass
class SpanLog:
    """In-memory spans recorded by the benchmark around calls into a layer."""

    spans: List[SpanRecord] = field(default_factory=list)

    def timed(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span called ``name``."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append(SpanRecord(name, start, time.perf_counter() - start))
        return result

    def total(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)


def breakdown(total: float, stages: Dict[str, float]) -> Dict[str, float]:
    """Stage seconds plus the ``unaccounted`` remainder, summing to ``total``."""
    rows = dict(stages)
    rows["unaccounted"] = total - sum(stages.values())
    return rows


def attribute_timeline(
    window: Tuple[float, float],
    intervals: Iterable[Tuple[float, float, str]],
    priority: Sequence[str],
) -> Dict[str, float]:
    """Assign every instant of ``window`` to at most one stage.

    Overlapping spans (parallel workers, parent-side decode racing worker
    compute) would double-count if summed, so each elementary segment of
    the window goes to the covering stage that comes first in ``priority``;
    time no span covers is returned as ``"unaccounted"``.  The values sum
    to the window length exactly.
    """
    lo, hi = window
    rank = {name: i for i, name in enumerate(priority)}
    clipped = [
        (max(s, lo), min(e, hi), name)
        for s, e, name in intervals
        if name in rank and min(e, hi) > max(s, lo)
    ]
    cuts = sorted({lo, hi, *(s for s, _, _ in clipped), *(e for _, e, _ in clipped)})
    out = {name: 0.0 for name in priority}
    out["unaccounted"] = 0.0
    for a, b in zip(cuts, cuts[1:]):
        covering = [rank[name] for s, e, name in clipped if s <= a and e >= b]
        key = priority[min(covering)] if covering else "unaccounted"
        out[key] += b - a
    return out


# -- memory ----------------------------------------------------------------------

def _children(pid: int) -> List[int]:
    found = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                found.extend(int(c) for c in fh.read().split())
    except OSError:
        pass
    return found


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def process_tree_peak_rss_mb() -> float:
    """Peak resident memory (VmHWM) of this process plus all live descendants.

    Call it while pool workers are still alive: a worker's peak is lost
    once it exits.  Falls back to ``ru_maxrss`` where ``/proc`` is missing.
    """
    if not os.path.exists("/proc/self/status"):
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total, stack = 0, [os.getpid()]
    while stack:
        pid = stack.pop()
        total += _hwm_kib(pid)
        stack.extend(_children(pid))
    return total / 1024.0


class PeakRss:
    """Running maximum of :func:`process_tree_peak_rss_mb` across samples."""

    def __init__(self) -> None:
        self.value = 0.0

    def sample(self) -> float:
        self.value = max(self.value, process_tree_peak_rss_mb())
        return self.value


def live_children() -> List[int]:
    return _children(os.getpid())


# -- machine meta ----------------------------------------------------------------

def _blas_runtime_threads() -> Optional[int]:
    """OpenBLAS's runtime thread count, read from the already-loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_meta(**extra: object) -> Dict[str, object]:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas_name = "unknown"
    affinity = getattr(os, "sched_getaffinity", None)
    meta: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "affinity_cores": len(affinity(0)) if affinity else None,
        "blas": blas_name,
        "blas_threads": _blas_runtime_threads(),
        "thread_env": {
            key: value for key, value in sorted(os.environ.items()) if key.endswith("_NUM_THREADS")
        },
        "repro_env": {
            key: value for key, value in sorted(os.environ.items()) if key.startswith("REPRO_")
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    meta.update(extra)
    return meta


# -- reporting -------------------------------------------------------------------

@dataclass
class Result:
    """One run's outcome: the metrics the final JSON line carries and the
    values the ``meta`` line adds (the resolved worker count, chunk size)."""

    attempted: int = 0
    failed: int = 0
    #: Requests admission refused that ``failed`` does not count: the open
    #: loop's refusals on the step that probes past the latency limit.
    refused: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @staticmethod
    def note(line: str) -> None:
        """A human-readable line, printed before the result line."""
        print(line, flush=True)
