"""Process-local metrics: counters, gauges and fixed-bucket histograms.

The serving stack reports a point-in-time ``ServiceStats`` snapshot; this
module is the layer underneath it — a dependency-free, Prometheus-style
registry that every serving component writes into as it runs:

* :class:`Counter` — monotonically increasing totals (requests, rows,
  retries, admission rejects by reason).
* :class:`Gauge` — instantaneous levels (queue depth, in-flight rows,
  current worker count).
* :class:`Histogram` — latency distributions over **fixed log-spaced
  buckets** (:data:`DEFAULT_LATENCY_BUCKETS`), so percentile estimates
  need no sample retention: recording is O(1) and memory is O(buckets),
  regardless of traffic volume.

All metrics support declared label dimensions (e.g. ``tenant``,
``priority``, ``reason``); a ``(metric, label-values)`` pair is one time
series, exactly as in the Prometheus data model.  A
:class:`MetricsRegistry` owns one process's metrics and renders them two
ways: :meth:`MetricsRegistry.snapshot` (a JSON-friendly dict, merged into
``ScenarioReport.timing``) and :meth:`MetricsRegistry.render_prometheus`
(the text exposition format served by ``GET /metrics`` on the front
door).  :func:`validate_prometheus_text` is the matching line-level
checker used by the CI smoke.

Everything here is stdlib-only and thread-safe (one lock per metric);
instruments are cheap enough to live on hot serving paths.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "REQUIRED_SERVE_SERIES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_prometheus_multi",
    "validate_prometheus_text",
]

#: Fixed log-spaced latency bounds (seconds): 125 µs doubling up to ~131 s,
#: plus the implicit ``+Inf`` overflow bucket.  Doubling buckets bound the
#: relative error of any interpolated percentile at 2x, which is plenty for
#: the p50/p95 the serving layer reports.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = tuple(0.000125 * (2.0**i) for i in range(21))

#: Series the front-door ``/metrics`` endpoint must always expose (the CI
#: smoke scrapes and asserts these by name).
REQUIRED_SERVE_SERIES: Tuple[str, ...] = (
    "repro_serve_requests_total",
    "repro_serve_rows_total",
    "repro_serve_request_latency_seconds_bucket",
    "repro_serve_queue_depth",
    "repro_serve_workers",
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    as_int = int(value)
    return str(as_int) if as_int == value else repr(float(value))


class _Metric:
    """Shared labelled-series bookkeeping for all three instrument kinds."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self._lock = threading.Lock()

    def _key(self, labels: Mapping[str, object]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _label_string(self, key: Tuple[str, ...]) -> str:
        return ",".join(
            f'{n}="{_escape_label_value(v)}"' for n, v in zip(self.label_names, key)
        )


class Counter(_Metric):
    """A monotonically increasing total, optionally split by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def series(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)


class Gauge(_Metric):
    """An instantaneous level that can move both ways."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Sequence[str] = ()) -> None:
        super().__init__(name, help, labels)
        self._values: Dict[Tuple[str, ...], float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def series(self) -> Dict[Tuple[str, ...], float]:
        with self._lock:
            return dict(self._values)


class Histogram(_Metric):
    """Fixed-bucket distribution with O(1) recording and no sample retention.

    Percentiles are estimated by linear interpolation inside the first
    bucket whose cumulative count crosses the target rank — with the
    log-spaced :data:`DEFAULT_LATENCY_BUCKETS` the estimate is within one
    doubling of the true value, which is the standard Prometheus
    ``histogram_quantile`` trade-off.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(float(b) for b in (buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be strictly increasing")
        self.bounds = bounds
        # Per label key: [bucket counts (+1 overflow), sum, count]
        self._series: Dict[Tuple[str, ...], List[object]] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = self._key(labels)
        index = bisect_left(self.bounds, value)
        with self._lock:
            entry = self._series.get(key)
            if entry is None:
                entry = [[0] * (len(self.bounds) + 1), 0.0, 0]
                self._series[key] = entry
            entry[0][index] += 1
            entry[1] += value
            entry[2] += 1

    def count(self, **labels: object) -> int:
        key = self._key(labels)
        with self._lock:
            entry = self._series.get(key)
            return int(entry[2]) if entry else 0

    def total_count(self) -> int:
        with self._lock:
            return sum(int(entry[2]) for entry in self._series.values())

    def _merged_counts(self, labels: Mapping[str, object]) -> Tuple[List[int], int]:
        """Bucket counts summed over every series matching ``labels``."""
        unknown = set(labels) - set(self.label_names)
        if unknown:
            raise ValueError(f"{self.name} has no labels {tuple(sorted(unknown))}")
        wanted = [(self.label_names.index(name), str(value)) for name, value in labels.items()]
        counts = [0] * (len(self.bounds) + 1)
        total = 0
        with self._lock:
            for key, entry in self._series.items():
                if all(key[i] == value for i, value in wanted):
                    for i, c in enumerate(entry[0]):
                        counts[i] += c
                    total += int(entry[2])
        return counts, total

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile over the series matching ``labels``.

        Any subset of the label names may be given; the series it matches
        are merged (no labels: every series).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        counts, total = self._merged_counts(labels)
        if total == 0:
            return 0.0
        target = q * total
        cumulative = 0
        for i, c in enumerate(counts):
            if c == 0:
                continue
            lower = self.bounds[i - 1] if i > 0 else 0.0
            if i >= len(self.bounds):  # overflow bucket: clamp to last bound
                return self.bounds[-1]
            upper = self.bounds[i]
            if cumulative + c >= target:
                fraction = (target - cumulative) / c
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
            cumulative += c
        return self.bounds[-1]

    def series(self) -> Dict[Tuple[str, ...], Dict[str, object]]:
        with self._lock:
            out = {}
            for key, entry in self._series.items():
                out[key] = {
                    "counts": list(entry[0]),
                    "sum": float(entry[1]),
                    "count": int(entry[2]),
                }
            return out


class MetricsRegistry:
    """One process's (or one service's) metrics, by name.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first call
    declares the instrument, later calls return the same object (and
    reject kind or label-schema mismatches, the usual registry contract).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, help: str, labels: Sequence[str], **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, labels=labels, **kwargs)
                self._metrics[name] = metric
                return metric
        if not isinstance(metric, cls):
            raise ValueError(f"{name} is registered as a {metric.kind}, not a {cls.kind}")
        if tuple(labels) and metric.label_names != tuple(labels):
            raise ValueError(
                f"{name} is registered with labels {metric.label_names}, not {tuple(labels)}"
            )
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    def get(self, name: str) -> Optional[_Metric]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    # -- exposition --------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-friendly dump: ``{name: {type, help, values}}``.

        Counter/gauge values key each series by its Prometheus label string
        (``""`` for the unlabelled series); histogram values carry
        ``count``/``sum`` plus interpolated p50/p95/p99.
        """
        out: Dict[str, Dict[str, object]] = {}
        with self._lock:
            metrics = list(self._metrics.items())
        for name, metric in sorted(metrics):
            entry: Dict[str, object] = {"type": metric.kind, "help": metric.help}
            if isinstance(metric, Histogram):
                values = {}
                for key, data in metric.series().items():
                    label_kwargs = dict(zip(metric.label_names, key))
                    values[metric._label_string(key)] = {
                        "count": data["count"],
                        "sum": data["sum"],
                        "p50": metric.quantile(0.5, **label_kwargs),
                        "p95": metric.quantile(0.95, **label_kwargs),
                        "p99": metric.quantile(0.99, **label_kwargs),
                    }
            else:
                values = {
                    metric._label_string(key): value
                    for key, value in metric.series().items()  # type: ignore[union-attr]
                }
            entry["values"] = values
            out[name] = entry
        return out

    def render_prometheus(self, extra_labels: Optional[Mapping[str, str]] = None) -> str:
        """The Prometheus text exposition format (version 0.0.4).

        ``extra_labels`` are appended to every series — the front door uses
        this to tag each backend service's registry with
        ``backend="<name>"`` before concatenating them.
        """
        extra = ""
        if extra_labels:
            extra = ",".join(
                f'{n}="{_escape_label_value(str(v))}"' for n, v in sorted(extra_labels.items())
            )
        lines: List[str] = []
        with self._lock:
            metrics = list(self._metrics.items())
        for name, metric in sorted(metrics):
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key, data in sorted(metric.series().items()):
                    base = metric._label_string(key)
                    joined = ",".join(x for x in (base, extra) if x)
                    cumulative = 0
                    for bound, count in zip(metric.bounds, data["counts"]):
                        cumulative += count
                        le = ",".join(x for x in (joined, f'le="{_format_value(bound)}"') if x)
                        lines.append(f"{name}_bucket{{{le}}} {cumulative}")
                    cumulative += data["counts"][-1]
                    le = ",".join(x for x in (joined, 'le="+Inf"') if x)
                    lines.append(f"{name}_bucket{{{le}}} {cumulative}")
                    suffix = f"{{{joined}}}" if joined else ""
                    lines.append(f"{name}_sum{suffix} {_format_value(data['sum'])}")
                    lines.append(f"{name}_count{suffix} {data['count']}")
            else:
                for key, value in sorted(metric.series().items()):  # type: ignore[union-attr]
                    base = metric._label_string(key)
                    joined = ",".join(x for x in (base, extra) if x)
                    suffix = f"{{{joined}}}" if joined else ""
                    lines.append(f"{name}{suffix} {_format_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""


def render_prometheus_multi(registries: Mapping[str, MetricsRegistry]) -> str:
    """Concatenate several registries, tagging each with ``backend="name"``.

    This is what ``GET /metrics`` on the :class:`~repro.serve.http.FrontDoor`
    serves: one text page over all backend services (``prod``, ``canary``,
    ...), each series labelled with its backend.
    """
    parts = [
        registry.render_prometheus(extra_labels={"backend": name})
        for name, registry in sorted(registries.items())
    ]
    return "".join(part for part in parts if part)


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[+-]?(?:[0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?|Inf|NaN))"
    r"(?: [0-9]+)?$"
)
_LABEL_PAIR_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}


def _split_label_pairs(body: str) -> Iterable[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    part, in_quotes, escaped = [], False, False
    for ch in body:
        if escaped:
            part.append(ch)
            escaped = False
            continue
        if ch == "\\":
            part.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
            part.append(ch)
            continue
        if ch == "," and not in_quotes:
            yield "".join(part)
            part = []
            continue
        part.append(ch)
    if part:
        yield "".join(part)


def validate_prometheus_text(text: str, required: Sequence[str] = ()) -> List[str]:
    """Line-level check of the Prometheus text format.

    Returns a list of human-readable problems (empty means valid).  Checks
    every non-comment line parses as ``name{labels} value``, that ``# TYPE``
    lines carry a known type, and that every name in ``required`` appears as
    at least one sample.
    """
    errors: List[str] = []
    seen: set = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            fields = line.split(None, 3)
            if len(fields) < 3 or fields[1] not in ("HELP", "TYPE"):
                errors.append(f"line {lineno}: malformed comment {line!r}")
                continue
            if not _NAME_RE.match(fields[2]):
                errors.append(f"line {lineno}: invalid metric name {fields[2]!r}")
            if fields[1] == "TYPE" and (len(fields) < 4 or fields[3] not in _TYPES):
                errors.append(f"line {lineno}: unknown metric type in {line!r}")
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        labels = match.group("labels")
        if labels:
            for pair in _split_label_pairs(labels[1:-1]):
                if not _LABEL_PAIR_RE.match(pair):
                    errors.append(f"line {lineno}: malformed label pair {pair!r}")
        seen.add(match.group("name"))
    for name in required:
        if name not in seen:
            errors.append(f"required series {name!r} missing")
    return errors
