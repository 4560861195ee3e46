"""Request-scoped tracing with deterministic, seed-derived identities.

A request's life in the serving stack is a fixed taxonomy of spans::

    admission -> queue_wait -> dispatch -> chunk[i] -> attempt[j]
                                               |-> worker_compute
                           -> assemble -> deliver

The identity trick is the same one ``repro.serve.faults`` uses for
exactly-once fault injection: chunk ``i`` of a request draws from the
``i``-th :class:`numpy.random.SeedSequence` child of the request seed, so
both sides of the process boundary can *derive* the same IDs instead of
shipping a context header:

* :func:`trace_id_from_seed` hashes the request seed's entropy — the
  parent service computes it at dispatch time;
* :func:`trace_id_from_child` hashes a chunk child's
  ``(entropy, spawn_key[:-1])`` — a worker holding only the child
  recovers the identical trace ID;
* :func:`chunk_span_id` hashes ``(trace_id, chunk index)`` — the worker's
  ``worker_compute`` span parents itself under the same chunk span the
  parent records, stitching the cross-process tree together with zero
  bytes of extra coordination.

Worker-side spans ride home inside the existing task return path: when
tracing is enabled the worker wraps its chunk ``Table`` in a
:class:`TracedChunk`; the parent unwraps it in ``decode_chunk`` and folds
the spans into its :class:`Tracer`.  The payload bytes are untouched,
which is why scenario fingerprints are identical with tracing on or off.

A :class:`Tracer` is an append-only, thread-safe span buffer with two
export formats: JSONL (one span per line) and the Chrome ``trace_event``
JSON that Perfetto / ``chrome://tracing`` load directly.  When no tracer
is installed every instrumentation site is a single ``is None`` check —
the ``serve_traced`` benchmark kernel gates the enabled overhead at ≤5%.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

__all__ = [
    "Span",
    "TracedChunk",
    "Tracer",
    "chunk_span_id",
    "request_span_id",
    "span_id",
    "trace_id_from_child",
    "trace_id_from_seed",
    "wall_clock",
]


def _hash_id(*parts: object) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def trace_id_from_seed(seed: object) -> str:
    """Deterministic 64-bit trace ID for a request seed.

    Accepts anything the sampling stack accepts as a seed.  For an integer
    seed the ID depends only on that integer (``SeedSequence(s).entropy``
    is ``s``), so the same request replayed anywhere lands in the same
    trace.  ``None`` seeds have no stable identity; they get a random ID.
    """
    if isinstance(seed, np.random.Generator):
        seed = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    if isinstance(seed, np.random.SeedSequence):
        return _hash_id("trace", seed.entropy, tuple(seed.spawn_key))
    if seed is None:
        return _hash_id("trace", os.urandom(16).hex())
    return _hash_id("trace", int(seed), ())


def trace_id_from_child(child: np.random.SeedSequence) -> str:
    """The parent request's trace ID, recovered from one chunk's seed child.

    Spawned children keep the parent's ``entropy`` and extend its
    ``spawn_key`` by one element, so stripping the last element
    reconstructs the parent identity :func:`trace_id_from_seed` hashes.
    """
    spawn_key = tuple(getattr(child, "spawn_key", ()))
    return _hash_id("trace", child.entropy, spawn_key[:-1])


def span_id(trace_id: str, *parts: object) -> str:
    """Deterministic span ID scoped to a trace."""
    return _hash_id("span", trace_id, *parts)


def request_span_id(trace_id: str) -> str:
    """The root span of a request — parent of every service-side span."""
    return span_id(trace_id, "request")


def chunk_span_id(trace_id: str, index: int) -> str:
    """The ``chunk[i]`` span — derivable on both sides of the pool."""
    return span_id(trace_id, "chunk", int(index))


def wall_clock(perf_stamp: float) -> float:
    """Convert a ``time.perf_counter()`` stamp to epoch seconds.

    Span starts are stored as wall-clock time so parent- and worker-side
    spans share a timeline; internal stamps are ``perf_counter`` based.
    """
    return time.time() - (time.perf_counter() - perf_stamp)


@dataclass
class Span:
    """One completed span.  Picklable: worker spans cross the pool as-is."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0  # epoch seconds
    duration: float = 0.0  # seconds
    pid: int = 0
    tid: int = 0
    attrs: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start": self.start,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
        }
        if self.parent_id is not None:
            payload["parent_id"] = self.parent_id
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload


@dataclass
class TracedChunk:
    """A worker task result with its spans piggybacked on the return path.

    ``payload`` is exactly what the untraced worker would have returned
    (the chunk ``Table``); the parent's decode path unwraps it before any
    byte-producing code sees the result, so enabling tracing cannot change
    served bytes.
    """

    payload: object
    spans: List[Span] = field(default_factory=list)


def make_span(
    name: str,
    trace_id: str,
    *,
    span_id: str,
    parent_id: Optional[str] = None,
    start: float,
    duration: float,
    attrs: Optional[Dict[str, object]] = None,
) -> Span:
    return Span(
        name=name,
        trace_id=trace_id,
        span_id=span_id,
        parent_id=parent_id,
        start=start,
        duration=max(float(duration), 0.0),
        pid=os.getpid(),
        tid=threading.get_ident() & 0x7FFFFFFF,
        attrs=dict(attrs) if attrs else {},
    )


class Tracer:
    """Append-only, thread-safe span collector.

    Instrumentation sites hold an ``Optional[Tracer]`` and skip all work
    when it is ``None`` — the disabled path is one attribute check.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    def record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def extend(self, spans: Sequence[Span]) -> None:
        if not spans:
            return
        with self._lock:
            self._spans.extend(spans)

    def record_span(
        self,
        name: str,
        trace_id: str,
        *,
        span_id: str,
        parent_id: Optional[str] = None,
        start: float,
        duration: float,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a span whose timing was measured externally (``start`` in
        epoch seconds — use :func:`wall_clock` on ``perf_counter`` stamps)."""
        self.record(
            make_span(
                name,
                trace_id,
                span_id=span_id,
                parent_id=parent_id,
                start=start,
                duration=duration,
                attrs=attrs,
            )
        )

    def add(
        self,
        name: str,
        trace_id: str,
        *key: object,
        parent: Optional[str],
        start: float,
        end: Optional[float] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record a finished span, deriving its ID and wall-clock start.

        The span ID is ``span_id(trace_id, stem, *key)``, where ``stem`` is
        ``name`` without any ``[i]`` suffix — so ``add("chunk[3]", trace,
        3, ...)`` records under :func:`chunk_span_id`, the ID both sides of
        the pool derive.  ``start``/``end`` are ``time.perf_counter()``
        stamps (``end`` defaults to now); the stored start is epoch time.
        """
        now = time.perf_counter()
        self.record_span(
            name,
            trace_id,
            span_id=span_id(trace_id, name.partition("[")[0], *key),
            parent_id=parent,
            start=wall_clock(start),
            duration=(now if end is None else end) - start,
            attrs=attrs,
        )

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: str,
        *,
        span_id: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Iterator[None]:
        start_wall = time.time()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record_span(
                name,
                trace_id,
                span_id=span_id,
                parent_id=parent_id,
                start=start_wall,
                duration=time.perf_counter() - start,
                attrs=attrs,
            )

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace ID, each group in start order."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans():
            grouped.setdefault(span.trace_id, []).append(span)
        for spans in grouped.values():
            spans.sort(key=lambda s: s.start)
        return grouped

    # -- export ------------------------------------------------------------
    def export_jsonl(self, path: str) -> int:
        """One JSON object per span.  Returns the number written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.as_dict(), sort_keys=True))
                fh.write("\n")
        return len(spans)

    def export_chrome(self, path: str) -> int:
        """Chrome ``trace_event`` JSON, loadable in Perfetto.

        Each span becomes a complete (``"ph": "X"``) event; process and
        thread lanes come from the recording side, so worker spans show up
        in their own process tracks under the shared timeline.
        """
        spans = self.spans()
        events = [
            {
                "name": span.name,
                "cat": "repro.serve",
                "ph": "X",
                "ts": span.start * 1e6,
                "dur": max(span.duration, 1e-7) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": dict(
                    span.attrs,
                    trace_id=span.trace_id,
                    span_id=span.span_id,
                    parent_id=span.parent_id or "",
                ),
            }
            for span in spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
            fh.write("\n")
        return len(spans)

    def export(self, path: str) -> int:
        """Chrome format for ``*.json`` paths, JSONL otherwise."""
        if str(path).endswith(".json"):
            return self.export_chrome(path)
        return self.export_jsonl(path)
