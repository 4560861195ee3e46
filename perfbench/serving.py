"""Serving workloads: ``serve-bulk`` and ``serve-mixed`` (closed loops) and
``serve-stream`` (open loop).

All three serve the CI-preset TVAE fitted on the ``table1-ci`` training
table through a ``SamplingService`` built with the library's default worker
count and chunk size, in ``sampling_mode="fast"``.

* ``serve-bulk`` — one client, back-to-back 200k-row requests through
  ``SamplingService.submit``/``result``.
* ``serve-mixed`` — eight clients, each sending one-chunk requests of
  mixed tenants and priority classes through ``FrontDoor.submit`` to an
  admission-controlled service and waiting for each reply.
* ``serve-stream`` — one generator thread sends Poisson arrivals through
  ``FrontDoor.submit`` up a fixed arrival-rate ladder; latency is timed
  from each request's *due* time.

Every delivered table is checked for its row count and the model's schema;
a seeded subset is re-generated in-process after the timed region and must
fingerprint-equal the served bytes (the sharding contract).
"""

from __future__ import annotations

import math
import threading
import time
from collections import defaultdict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from harness import (
    PeakRss,
    Result,
    SpanLog,
    attribute_timeline,
    check,
    median,
    percentile,
    tail_percentile,
)
from pipeline import build, traced_dataset, workload
from repro.experiments.table1 import build_model
from repro.obs.tracing import Tracer
from repro.serve import (
    AdmissionPolicy,
    AdmissionRejected,
    FrontDoor,
    RequestSpec,
    SamplingService,
    table_fingerprint,
)
from repro.tabular.table import Table
from repro.utils.rng import derive_seed

BULK_ROWS = 200_000
SMALL_SIZES = (512, 1024, 2048, 4096)
TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
PRIORITIES = ("interactive", "normal", "batch")
#: Sizes, tenants and priority classes are balanced within every block of
#: this many requests (a common multiple of 4 sizes, 4 tenants, 3 classes).
MIX_BLOCK = 12
#: Open-loop arrival-rate ladder (req/s); it stops at the first failing step
#: at or above the reference step.
LADDER = (25, 50, 75, 100, 150, 200, 300)
REFERENCE_RPS = 50
LATENCY_LIMIT_S = 0.100
#: The limit applies at p95: a step passes when this share is on time.
ON_TIME_SHARE = 0.95
MAX_FAILED_SHARE = 0.01
#: ``serve-stream``'s admission bound: overload shows as refusals, never as
#: a blocked generator.
STREAM_BACKLOG_ROWS = 32_768
#: Pool instances per run: each closed loop gives every one an equal share
#: of ``--seconds``, because a pool's speed varies from one instance to the
#: next on an oversubscribed host.
SETUP_REPEATS = 5
#: Share of ``serve-stream``'s requests whose bytes are re-generated
#: in-process and compared.
STREAM_CHECK_SHARE = 0.05
RESULT_TIMEOUT_S = 120.0

#: Timeline attribution order: the dispatcher's own stages first, then the
#: workers'; time no span covers is pool queueing, IPC and waiting behind
#: other requests' chunks, reported as ``unaccounted``.
STAGE_PRIORITY = (
    "admission",
    "queue_wait",
    "dispatch",
    "shm_decode",
    "assemble",
    "deliver",
    "worker_compute",
    "shm_encode",
)

COUNTERS = {
    "requests": "repro_serve_requests_total",
    "errors": "repro_serve_request_errors_total",
    "rows": "repro_serve_rows_total",
    "batches": "repro_serve_batches_total",
    "retries": "repro_serve_chunk_retries_total",
    "timeouts": "repro_serve_chunk_timeouts_total",
    "hedges": "repro_serve_chunk_hedges_total",
    "shm_chunks": "repro_serve_shm_chunks_total",
    "shm_bytes": "repro_serve_shm_bytes_total",
    "rejected": "repro_serve_admission_rejected_total",
}
QUEUE_WAIT = "repro_serve_queue_wait_seconds"


# -- requests --------------------------------------------------------------------

def _balanced(rng, options: int, n: int) -> np.ndarray:
    """``n`` draws with every option equally often (±1), in seeded order."""
    return rng.permutation(np.arange(n) % options)


def request_stream(
    seed: int,
    name: str,
    sizes: Sequence[int],
    tenants: Sequence[str] = ("default",),
    priorities: Sequence[str] = ("normal",),
) -> Iterator[RequestSpec]:
    """Endless fast-mode requests, each with a distinct seed.

    Sizes, tenants and priority classes are balanced within every block of
    ``MIX_BLOCK`` requests, so the seed changes the order of the work, not
    its amount.
    """
    base = derive_seed(seed, name) << 24
    rng = np.random.default_rng(derive_seed(seed, name, "mix"))
    ordinal = 0
    while True:
        size = _balanced(rng, len(sizes), MIX_BLOCK)
        tenant = _balanced(rng, len(tenants), MIX_BLOCK)
        priority = _balanced(rng, len(priorities), MIX_BLOCK)
        for k in range(MIX_BLOCK):
            yield RequestSpec(
                n=int(sizes[size[k]]),
                seed=base + ordinal,
                sampling_mode="fast",
                tenant=tenants[tenant[k]],
                priority=priorities[priority[k]],
            )
            ordinal += 1


# -- set-up ----------------------------------------------------------------------

def fit_model(seed: int, spans: Optional[SpanLog] = None):
    """The CI-preset TVAE fitted on the ``table1-ci`` training table."""
    work = workload("table1-ci", seed)
    model = build_model("tvae", work.config)
    if spans is None:
        model.fit(build(work).train)
        return model, None
    raw_jobs, train, _ = traced_dataset(work, spans)
    check(train == build(work).train, "step-by-step dataset differs from build_dataset")
    spans.timed("models.tvae.fit", model.fit, train)
    return model, (raw_jobs, len(train))


class Served:
    """A service (warmed up) behind a front door, closed together.

    ``backlog_rows`` sets an ``AdmissionPolicy(max_backlog_rows=…)``.
    """

    def __init__(
        self,
        model,
        warmup: Sequence[RequestSpec],
        backlog_rows: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        admission = None if backlog_rows is None else AdmissionPolicy(max_backlog_rows=backlog_rows)
        self.service = SamplingService(model, admission=admission, tracer=tracer)
        for spec in warmup:
            self.service.sample(spec)
        if tracer is not None:
            tracer.clear()  # warm-up spans are not part of the measurement
        self.door = FrontDoor(self.service)

    def close(self) -> None:
        self.door.close()
        self.service.close()


# -- registry and trace readers ----------------------------------------------------

def read_counters(service: SamplingService) -> Dict[str, float]:
    out = {}
    for key, name in COUNTERS.items():
        metric = service.metrics.get(name)
        out[key] = float(metric.total()) if metric is not None else 0.0
    return out


def counter_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


def queue_wait_counts(service: SamplingService) -> Tuple[Tuple[float, ...], List[int]]:
    """The queue-wait histogram's bucket counts, merged over every flow."""
    histogram = service.metrics.get(QUEUE_WAIT)
    counts = [0] * (len(histogram.bounds) + 1)
    for data in histogram.series().values():
        for i, c in enumerate(data["counts"]):
            counts[i] += c
    return histogram.bounds, counts


def bucket_quantile(bounds: Sequence[float], counts: Sequence[int], q: float) -> float:
    """``Histogram.quantile``'s interpolation over a bucket-count delta."""
    total = sum(counts)
    if total == 0:
        return 0.0
    target, cumulative = q * total, 0
    for i, c in enumerate(counts):
        if c == 0:
            continue
        if i >= len(bounds):
            return bounds[-1]
        lower = bounds[i - 1] if i > 0 else 0.0
        if cumulative + c >= target:
            fraction = min(max((target - cumulative) / c, 0.0), 1.0)
            return lower + (bounds[i] - lower) * fraction
        cumulative += c
    return bounds[-1]


class RegistryWindow:
    """Counter and queue-wait histogram deltas over one measured stretch."""

    def __init__(self, service: SamplingService) -> None:
        self.service = service
        self.before = read_counters(service)
        self.bounds, self.waits_before = queue_wait_counts(service)

    def close(self) -> Tuple[Dict[str, float], List[int]]:
        """(counter deltas, queue-wait bucket-count deltas)."""
        delta = counter_delta(self.before, read_counters(self.service))
        _, waits_after = queue_wait_counts(self.service)
        return delta, [a - b for a, b in zip(waits_after, self.waits_before)]


def trace_breakdown(spans) -> Tuple[Dict[str, float], int]:
    """Per-stage seconds summed over traced requests, reconciling to the
    summed request latency through ``unaccounted``.

    ``attempt[j]`` spans are deliberately ignored: they include time queued
    in the pool behind sibling chunks, so they are not execution time.
    """
    by_trace: Dict[str, list] = defaultdict(list)
    for span in spans:
        by_trace[span.trace_id].append(span)
    totals: Dict[str, float] = defaultdict(float)
    requests = 0
    for trace in by_trace.values():
        roots = [span for span in trace if span.name == "request"]
        if len(roots) != 1:
            continue
        root = roots[0]
        requests += 1
        totals["request"] += root.duration
        intervals = [(s.start, s.start + s.duration, s.name) for s in trace]
        window = (root.start, root.start + root.duration)
        for stage, seconds in attribute_timeline(window, intervals, STAGE_PRIORITY).items():
            totals[stage] += seconds
    return dict(totals), requests


def check_table(table: Table, n: int, schema) -> None:
    check(len(table) == n, f"served {len(table)} rows, requested {n}")
    check(table.schema == schema, "served table schema differs from the model's")


def check_fingerprints(model, chunk_size: int, kept: List[Tuple[RequestSpec, Table]]) -> None:
    """Served bytes == the in-process chunked generation (sharding contract)."""
    for spec, table in kept:
        expected = Table.concat(
            list(model.sample_batches(spec.n, chunk_size, seed=spec.seed, sampling_mode="fast"))
        )
        check(
            table_fingerprint(table) == table_fingerprint(expected),
            f"request seed={spec.seed} n={spec.n}: served bytes differ from in-process sampling",
        )


def in_process_seconds(model, specs: Sequence[RequestSpec]) -> float:
    """The compute floor: the same request mix sampled in this process."""
    t0 = time.perf_counter()
    for spec in specs:
        model.sample(spec.n, seed=spec.seed, sampling_mode="fast")
    return time.perf_counter() - t0


def put_registry(
    result: Result,
    service: SamplingService,
    bounds: Sequence[float],
    delta: Dict[str, float],
    waits: Sequence[int],
    chunks: int,
) -> None:
    attempts = chunks + delta["retries"] + delta["hedges"]
    result.put("serve.batches", delta["batches"], "count")
    result.put("serve.rows_per_batch", delta["rows"] / max(delta["batches"], 1.0), "rows")
    result.put("serve.queue_wait_p50_ms", bucket_quantile(bounds, waits, 0.50) * 1e3, "ms")
    result.put("serve.queue_wait_p95_ms", bucket_quantile(bounds, waits, 0.95) * 1e3, "ms")
    result.put("sharded.chunks", chunks, "count")
    result.put("sharded.retries", delta["retries"], "count")
    result.put("sharded.timeouts", delta["timeouts"], "count")
    result.put("sharded.hedges", delta["hedges"], "count")
    result.put("sharded.useful_attempt_ratio", chunks / attempts if attempts else 1.0, "ratio")
    result.put("pool.restarts", service.stats().pool_restarts, "count")
    result.put("pool.workers", service.workers, "count")
    result.put("serve.chunk_size", service.chunk_size, "rows")
    result.put("shm.chunks", delta["shm_chunks"], "count")
    result.put(
        "shm.bytes_per_chunk",
        delta["shm_bytes"] / delta["shm_chunks"] if delta["shm_chunks"] else 0.0,
        "B",
    )
    result.put("admission.rejected", delta["rejected"], "count")


def put_breakdown(result: Result, totals: Dict[str, float], requests: int, n_spans: int) -> None:
    result.put("serve.request_s", totals.get("request", 0.0), "s")
    for stage in STAGE_PRIORITY + ("unaccounted",):
        result.put(f"serve.{stage}_s", totals.get(stage, 0.0), "s")
    result.put("obs.spans_per_request", n_spans / max(requests, 1), "count")
    total = totals.get("request", 0.0)
    result.note(f"serve breakdown over {requests} traced requests (sum of latencies {total:.3f}s):")
    for stage in STAGE_PRIORITY + ("unaccounted",):
        value = totals.get(stage, 0.0)
        share = 100 * value / total if total else 0.0
        result.note(f"  {stage:<16} {value:9.4f} s  {share:5.1f}%")


def put_setup_layers(result: Result, spans: SpanLog, sizes: Tuple[int, int]) -> None:
    for name in ("panda.generate", "panda.funnel", "tabular.split", "models.tvae.fit"):
        result.put(f"{name}_s", spans.total(name), "s")
    result.put("panda.raw_jobs", sizes[0], "count")
    result.put("tabular.train_rows", sizes[1], "count")


def chunk_count(specs: Sequence[RequestSpec], chunk_size: int) -> int:
    return sum(-(-spec.n // chunk_size) for spec in specs)


# -- closed loops: serve-bulk, serve-mixed -----------------------------------------

@dataclass(frozen=True)
class ClosedWorkload:
    """``clients`` callers, each sending its next request when its reply
    arrives.

    With ``backlog_rows`` set, requests go through a ``FrontDoor`` over a
    service with that admission bound; otherwise straight to
    ``SamplingService.submit``.
    """

    name: str
    sizes: Tuple[int, ...]
    tenants: Tuple[str, ...]
    priorities: Tuple[str, ...]
    clients: int
    warmup: int
    #: Requests per pool instance whose bytes are re-generated in-process:
    #: a constant number, so the kept tables weigh the same in peak memory
    #: on every seed.
    checks: int
    backlog_rows: Optional[int] = None

    def requests(self, seed: int, purpose: str) -> Iterator[RequestSpec]:
        return request_stream(seed, f"{self.name}/{purpose}", self.sizes, self.tenants, self.priorities)

    def warmup_specs(self, seed: int) -> List[RequestSpec]:
        return list(islice(self.requests(seed, "warmup"), self.warmup))

    def submitter(self, served: Served) -> Callable[[RequestSpec], object]:
        return served.service.submit if self.backlog_rows is None else served.door.submit

    def keep(self, rng) -> Set[int]:
        """Which of the first requests are kept for the fingerprint check."""
        return set(rng.choice(4 * self.clients, self.checks, replace=False).tolist())


CLOSED = {
    "serve-bulk": ClosedWorkload(
        "serve-bulk", (BULK_ROWS,), ("default",), ("normal",), clients=1, warmup=2, checks=1
    ),
    # The admission bound is exactly what eight of the largest requests can
    # hold, so admission checks every request and refuses none.
    "serve-mixed": ClosedWorkload(
        "serve-mixed",
        SMALL_SIZES,
        TENANTS,
        PRIORITIES,
        clients=8,
        warmup=12,
        checks=4,
        backlog_rows=8 * max(SMALL_SIZES),
    ),
}


@dataclass
class ClosedLoop:
    #: Per delivered request, from submission to completion.
    latencies: List[float] = field(default_factory=list)
    #: Time inside each ``submit`` call.
    submit_s: List[float] = field(default_factory=list)
    #: Every request sent, in the order the clients took them: the replay list.
    specs: List[RequestSpec] = field(default_factory=list)
    kept: List[Tuple[RequestSpec, Table]] = field(default_factory=list)
    rows: int = 0
    failed: int = 0
    wall: float = 0.0


def closed_loop(
    submit: Callable[[RequestSpec], object],
    schema,
    requests: Iterator[RequestSpec],
    clients: int,
    keep: Set[int],
    seconds: Optional[float] = None,
) -> ClosedLoop:
    """``clients`` threads take the next of ``requests`` and wait for its
    reply, for ``seconds`` or, with ``seconds=None``, until ``requests``
    runs out.  A refused or failed request is counted and its client goes
    on."""
    loop = ClosedLoop()
    lock = threading.Lock()
    numbered = enumerate(requests)
    start = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                if seconds is not None and time.perf_counter() - start >= seconds:
                    return
                taken = next(numbered, None)
                if taken is None:
                    return
                loop.specs.append(taken[1])
            index, spec = taken
            t0 = time.perf_counter()
            try:
                handle = submit(spec)
                returned = time.perf_counter()
                table = handle.result(RESULT_TIMEOUT_S)
            except Exception:  # noqa: BLE001 - a refused or failed request is counted, not fatal
                with lock:
                    loop.failed += 1
                continue
            check_table(table, spec.n, schema)
            with lock:
                # ``latency`` runs from the handle's creation inside
                # submit(); adding it to submit()'s return time over-counts
                # by the admission bookkeeping's few microseconds, never
                # under-counts, and leaves out this thread's wake-up.
                loop.latencies.append(returned + handle.latency - t0)
                loop.submit_s.append(returned - t0)
                loop.rows += spec.n
                if index in keep:
                    loop.kept.append((spec, table))

    with ThreadPoolExecutor(max_workers=clients) as pool:
        futures = [pool.submit(client) for _ in range(clients)]
    for future in futures:
        future.result()  # re-raises a failed output check
    loop.wall = time.perf_counter() - start
    return loop


def measure_closed(work: ClosedWorkload, seed: int, seconds: float, import_s: float) -> Result:
    """Set up ``SETUP_REPEATS`` times; each set-up serves an equal share of
    the closed loop before it is torn down, and the percentiles pool
    requests from every instance.  Output checks run after the last one."""
    requests = work.requests(seed, "loop")
    warmup = work.warmup_specs(seed)
    rng = np.random.default_rng(seed)
    result = Result()
    peak = PeakRss()
    setups: List[float] = []
    latencies: List[float] = []
    wall, rows = 0.0, 0
    checks = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        model, _ = fit_model(seed)
        served = Served(model, warmup, work.backlog_rows)
        setups.append(time.perf_counter() - t0)
        try:
            loop = closed_loop(
                work.submitter(served), model.schema_, requests, work.clients,
                work.keep(rng), seconds / SETUP_REPEATS,
            )
            peak.sample()
            workers, chunk_size = served.service.workers, served.service.chunk_size
        finally:
            served.close()
        latencies += loop.latencies
        wall += loop.wall
        rows += loop.rows
        result.attempted += len(loop.specs)
        result.failed += loop.failed
        checks.append((model, loop.kept))
    for model, kept in checks:
        check_fingerprints(model, chunk_size, kept)
    check(bool(latencies), "no request was served")

    n = len(latencies)
    tail = tail_percentile(n)
    result.put("setup_s", import_s + median(setups), "s")
    result.put("rows_per_s", rows / wall, "rows/s")
    result.put("latency_p50_ms", median(latencies) * 1e3, "ms")
    result.put("latency_p95_ms", percentile(latencies, tail) * 1e3, "ms")
    result.put("peak_rss_mb", peak.value, "MiB")
    result.meta.update(workers=workers, chunk_size=chunk_size)
    result.note(
        f"{work.name} closed loop, {work.clients} client(s), served={n} "
        f"workers={workers} chunk_size={chunk_size} tail=p{tail:.0f} "
        f"fingerprint_checks={sum(len(kept) for _, kept in checks)}"
    )
    result.note(f"setup_repeats_s={[round(s, 3) for s in setups]} imports_s={import_s:.3f}")
    return result


def measure_closed_traced(work: ClosedWorkload, seed: int, seconds: float) -> Result:
    """An untraced service for ``seconds / 2``, then a traced one replaying
    the same requests, plus the in-process replay that is the
    parallel-efficiency base."""
    rng = np.random.default_rng(seed)
    warmup = work.warmup_specs(seed)
    spans = SpanLog()
    model, sizes = fit_model(seed, spans)
    schema = model.schema_
    result = Result()

    served = Served(model, warmup, work.backlog_rows)
    try:
        plain = closed_loop(
            work.submitter(served), schema, work.requests(seed, "loop"), work.clients,
            work.keep(rng), seconds / 2,
        )
        workers, chunk_size = served.service.workers, served.service.chunk_size
    finally:
        served.close()

    tracer = Tracer()
    served = Served(model, warmup, work.backlog_rows, tracer)
    try:
        registry = RegistryWindow(served.service)
        traced = closed_loop(
            work.submitter(served), schema, iter(plain.specs), work.clients, work.keep(rng)
        )
        delta, waits = registry.close()
        put_registry(
            result, served.service, registry.bounds, delta, waits,
            chunk_count(plain.specs, chunk_size),
        )
    finally:
        served.close()
    check_fingerprints(model, chunk_size, plain.kept + traced.kept)
    result.attempted = 2 * len(plain.specs)
    result.failed = plain.failed + traced.failed

    floor = in_process_seconds(model, plain.specs)
    totals, requests = trace_breakdown(tracer.spans())
    put_setup_layers(result, spans, sizes)
    put_breakdown(result, totals, requests, len(tracer))
    result.put("models.sample_fast_s", floor, "s")
    result.put("serve.served_wall_s", plain.wall, "s")
    result.put("serve.parallel_efficiency", floor / (workers * plain.wall), "ratio")
    result.put("serve.submit_ms", median(traced.submit_s) * 1e3, "ms")
    result.put("serve.submit_p95_ms", percentile(traced.submit_s, 95) * 1e3, "ms")
    result.put("obs.trace_overhead_pct", 100.0 * (traced.wall - plain.wall) / plain.wall, "%")
    result.note(
        f"parallel efficiency = in-process {floor:.3f}s / ({workers} workers x served "
        f"{plain.wall:.3f}s) over the same {len(plain.specs)} fast requests"
    )
    return result


# -- serve-stream ----------------------------------------------------------------

@dataclass
class Plan:
    """One ladder step's arrival schedule, fixed before it runs."""

    rate: float
    duration: float
    offsets: np.ndarray
    specs: List[RequestSpec]
    keep: np.ndarray


def plan_step(rate: float, duration: float, rng, requests: Iterator[RequestSpec]) -> Plan:
    """Poisson arrivals: ``rate * duration`` uniform order statistics on the
    step window (a Poisson process conditioned on its count)."""
    n = max(1, int(round(rate * duration)))
    offsets = np.sort(rng.uniform(0.0, duration, n))
    return Plan(rate, duration, offsets, list(islice(requests, n)), rng.random(n) < STREAM_CHECK_SHARE)


@dataclass
class Sent:
    due: float
    sent: float
    returned: float
    spec: RequestSpec
    ticket: Optional[object]
    keep: bool
    done_at: float = math.inf
    error: Optional[str] = None


@dataclass
class Step:
    rate: float
    records: List[Sent]
    first_due: float
    window_end: float
    kept: List[Tuple[RequestSpec, Table]]

    @property
    def latencies(self) -> List[float]:
        """From due time; a refused or failed request is +inf (misses any limit)."""
        return [r.done_at - r.due for r in self.records]

    @property
    def refused(self) -> int:
        return sum(r.ticket is None for r in self.records)

    @property
    def errors(self) -> int:
        return sum(r.error is not None for r in self.records)

    @property
    def failed_share(self) -> float:
        return (self.refused + self.errors) / len(self.records)

    @property
    def meet_share(self) -> float:
        return sum(lat <= LATENCY_LIMIT_S for lat in self.latencies) / len(self.records)

    @property
    def last_done(self) -> float:
        done = [r.done_at for r in self.records if math.isfinite(r.done_at)]
        return max(done) if done else math.inf

    @property
    def drained(self) -> bool:
        return self.last_done <= self.window_end + LATENCY_LIMIT_S

    @property
    def passed(self) -> bool:
        """p95 from due time within the limit (>= 95% of the step's requests
        on time, refusals and failures counting as late), <= 1% failed, and
        the backlog drained by the end of the step plus the limit."""
        return (
            self.meet_share >= ON_TIME_SHARE
            and self.failed_share <= MAX_FAILED_SHARE
            and self.drained
        )

    @property
    def lateness(self) -> List[float]:
        return [r.sent - r.due for r in self.records]

    @property
    def delivered_rows(self) -> int:
        return sum(r.spec.n for r in self.records if math.isfinite(r.done_at))


def run_step(door: FrontDoor, plan: Plan, schema) -> Step:
    """Send the plan's arrivals on schedule; collect every outcome."""
    kept: List[Tuple[RequestSpec, Table]] = []
    pending: Deque[Sent] = deque()
    records: List[Sent] = []

    def collect(record: Sent) -> None:
        try:
            table = record.ticket.result(RESULT_TIMEOUT_S)
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            record.error = f"{type(exc).__name__}: {exc}"
            return
        # As in closed_loop: over-counts by microseconds, never under-counts.
        record.done_at = record.returned + record.ticket.latency
        check_table(table, record.spec.n, schema)
        if record.keep:
            kept.append((record.spec, table))

    start = time.perf_counter() + 0.01
    for offset, spec, keep in zip(plan.offsets, plan.specs, plan.keep):
        due = start + float(offset)
        # Use idle time before the next arrival to release finished requests.
        while pending and pending[0].ticket.done() and due - time.perf_counter() > 0.002:
            collect(pending.popleft())
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        try:
            ticket = door.submit(spec)
        except AdmissionRejected:
            ticket = None
        record = Sent(due, sent, time.perf_counter(), spec, ticket, bool(keep))
        records.append(record)
        if ticket is not None:
            pending.append(record)
    while pending:
        collect(pending.popleft())
    return Step(plan.rate, records, start + float(plan.offsets[0]), start + plan.duration, kept)


def max_rate(steps: Sequence[Step]) -> float:
    """Highest sustainable arrival rate on the ladder.

    The last passing step before the first failing one, refined by linear
    interpolation of the on-time share between the two steps to where it
    crosses 95%, so the figure moves continuously instead of jumping a
    whole ladder step.  A step that failed on refusals or backlog while
    >= 95% on time gives no slope, and the last passing rate stands.
    """
    prev_rate, prev_meet = 0.0, 1.0
    for step in steps:
        if not step.passed:
            if step.meet_share >= ON_TIME_SHARE or prev_meet <= step.meet_share:
                return prev_rate
            fraction = (prev_meet - ON_TIME_SHARE) / (prev_meet - step.meet_share)
            return prev_rate + (step.rate - prev_rate) * min(max(fraction, 0.0), 1.0)
        prev_rate, prev_meet = step.rate, step.meet_share
    return prev_rate


def step_seconds(rate: float, seconds: float) -> float:
    """The reference step lasts half the run, every other step a quarter:
    latency percentiles wander from one 4-second window to the next on a
    busy host, so the reported ones pool the longest window."""
    return max(1.0, seconds / (2.0 if rate == REFERENCE_RPS else 4.0))


def _stream_requests(seed: int, purpose: str) -> Iterator[RequestSpec]:
    return request_stream(seed, f"serve-stream/{purpose}", SMALL_SIZES, TENANTS, PRIORITIES)


def _stream_plans(seed: int, seconds: float) -> List[Plan]:
    rng = np.random.default_rng(seed)
    requests = _stream_requests(seed, "ladder")
    return [plan_step(rate, step_seconds(rate, seconds), rng, requests) for rate in LADDER]


def _ladder_note(result: Result, steps: Sequence[Step]) -> None:
    for step in steps:
        lat = step.latencies
        tail = tail_percentile(len(lat))
        result.note(
            f"  step {step.rate:>5.0f} req/s n={len(lat)} p50={percentile(lat, 50) * 1e3:.1f}ms "
            f"p{tail:.0f}={percentile(lat, tail) * 1e3:.1f}ms on_time={step.meet_share:.3f} "
            f"refused={step.refused} errors={step.errors} drained={step.drained} "
            f"passed={step.passed} late_p95={percentile(step.lateness, 95) * 1e3:.2f}ms"
        )


def count_outcomes(result: Result, steps: Sequence[Step]) -> None:
    """Add the ladder's requests to ``attempted``, ``failed`` and ``refused``.

    Refusals on the step that probes past the limit, and after it, are the
    measurement; anywhere before it they are failures.
    """
    first_fail = next((i for i, step in enumerate(steps) if not step.passed), len(steps))
    result.attempted += sum(len(step.records) for step in steps)
    result.failed += sum(s.refused + s.errors for s in steps[:first_fail])
    result.failed += sum(s.errors for s in steps[first_fail:])
    result.refused += sum(s.refused for s in steps[first_fail:])


def measure_stream(seed: int, seconds: float, import_s: float) -> Result:
    warmup = list(islice(_stream_requests(seed, "warmup"), 12))
    setups: List[float] = []
    served = None
    for _ in range(SETUP_REPEATS):
        if served is not None:
            served.close()
        t0 = time.perf_counter()
        model, _ = fit_model(seed)
        served = Served(model, warmup, STREAM_BACKLOG_ROWS)
        setups.append(time.perf_counter() - t0)
    result = Result()
    peak = PeakRss()
    steps: List[Step] = []
    try:
        for plan in _stream_plans(seed, seconds):
            step = run_step(served.door, plan, model.schema_)
            steps.append(step)
            if not step.passed and step.rate >= REFERENCE_RPS:
                break
        peak.sample()
        workers, chunk_size = served.service.workers, served.service.chunk_size
    finally:
        served.close()
    check_fingerprints(model, chunk_size, [kv for step in steps for kv in step.kept])
    peak.sample()

    reference = next(step for step in steps if step.rate == REFERENCE_RPS)
    lat = reference.latencies
    tail = tail_percentile(len(lat))
    count_outcomes(result, steps)
    makespan = reference.last_done - reference.first_due
    result.put("setup_s", import_s + median(setups), "s")
    result.put("wall_s", makespan, "s")
    result.put("rows_per_s", reference.delivered_rows / makespan, "rows/s")
    result.put("latency_p50_ms", percentile(lat, 50) * 1e3, "ms")
    result.put("latency_p95_ms", percentile(lat, tail) * 1e3, "ms")
    result.put("peak_rss_mb", peak.value, "MiB")
    result.meta.update(workers=workers, chunk_size=chunk_size)
    result.note(f"max_rate_rps {max_rate(steps)!r} req/s")
    result.note(
        f"serve-stream open loop, 1 generator thread, reference step "
        f"{step_seconds(REFERENCE_RPS, seconds):.1f}s, others {step_seconds(0, seconds):.1f}s, limit "
        f"{LATENCY_LIMIT_S * 1e3:.0f}ms at p95; workers={workers} chunk_size={chunk_size} "
        f"passing={[s.rate for s in steps if s.passed]}"
    )
    _ladder_note(result, steps)
    result.note(f"setup_repeats_s={[round(s, 3) for s in setups]} imports_s={import_s:.3f}")
    return result


def measure_stream_traced(seed: int, seconds: float) -> Result:
    """Untraced reference step (the overhead base), then the ladder on a
    traced service with the reference step replaying the same schedule."""
    warmup = list(islice(_stream_requests(seed, "warmup"), 12))
    spans = SpanLog()
    model, sizes = fit_model(seed, spans)
    schema = model.schema_
    result = Result()
    plans = _stream_plans(seed, seconds)
    reference_plan = plans[LADDER.index(REFERENCE_RPS)]

    served = Served(model, warmup, STREAM_BACKLOG_ROWS)
    try:
        workers = served.service.workers
        base = run_step(served.door, reference_plan, schema)
    finally:
        served.close()

    tracer = Tracer()
    served = Served(model, warmup, STREAM_BACKLOG_ROWS, tracer)
    service = served.service
    steps: List[Step] = []
    try:
        chunk_size = service.chunk_size
        rejected = RegistryWindow(service)
        for plan in plans:
            if plan is reference_plan:
                registry = RegistryWindow(service)
                tracer.clear()
                step = run_step(served.door, plan, schema)
                reference_spans = tracer.spans()
                delta, waits = registry.close()
                admitted = [r.spec for r in step.records if r.ticket is not None]
                put_registry(
                    result, service, registry.bounds, delta, waits,
                    chunk_count(admitted, chunk_size),
                )
                reference = step
            else:
                step = run_step(served.door, plan, schema)
            steps.append(step)
            if not step.passed and step.rate >= REFERENCE_RPS:
                break
        # Over the whole ladder, not only the reference step.
        result.put("admission.rejected", rejected.close()[0]["rejected"], "count")
    finally:
        served.close()
    check_fingerprints(
        model, chunk_size, base.kept + [kv for step in steps for kv in step.kept]
    )
    count_outcomes(result, [base])
    count_outcomes(result, steps)

    served_specs = [r.spec for r in base.records if math.isfinite(r.done_at)]
    floor = in_process_seconds(model, served_specs)
    makespan = base.last_done - base.first_due
    totals, requests = trace_breakdown(reference_spans)
    put_setup_layers(result, spans, sizes)
    put_breakdown(result, totals, requests, len(reference_spans))
    submit = [r.returned - r.sent for r in reference.records]
    result.put("models.sample_fast_s", floor, "s")
    result.put("serve.served_wall_s", makespan, "s")
    result.put("serve.parallel_efficiency", floor / (workers * makespan), "ratio")
    result.put("serve.submit_ms", median(submit) * 1e3, "ms")
    result.put("serve.submit_p95_ms", percentile(submit, 95) * 1e3, "ms")
    base_p50 = percentile(base.latencies, 50)
    result.put(
        "obs.trace_overhead_pct",
        100.0 * (percentile(reference.latencies, 50) - base_p50) / base_p50,
        "%",
    )
    result.note(
        f"reference step {REFERENCE_RPS} req/s: untraced p50 {base_p50 * 1e3:.1f}ms, traced "
        f"p50 {percentile(reference.latencies, 50) * 1e3:.1f}ms; efficiency base = in-process "
        f"{floor:.3f}s / ({workers} workers x makespan {makespan:.3f}s)"
    )
    _ladder_note(result, steps)
    return result
