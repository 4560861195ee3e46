"""The sampling service: a fair, admission-controlled, pipelined dispatcher.

Serving traffic is many concurrent, mostly small requests from many
tenants, not one giant request.  :class:`SamplingService` accepts
:class:`~repro.serve.api.RequestSpec` submissions — the request layer's only
form — from any thread (:meth:`~SamplingService.submit` returns a
:class:`SampleRequest` handle), and a dispatcher thread runs a *pipeline*.
It keeps a FIFO of the requests whose chunks are in the worker pool.  Each
turn it *refills*: it pops what the weighted fair queue yields and submits
those chunks (interleaved across the popped requests).  Then it blocks on
the oldest in-flight request and delivers it.  While it waits, the pool
keeps working on every other in-flight request's chunks, so the pool
pipelines across request boundaries instead of draining at each one, and
an arrival waits for the next delivery rather than for a whole batch.

Fairness: queued requests are ordered by **start-time weighted fair
queueing** over ``(tenant, priority)`` flows.  Each flow accumulates
virtual finish times at a rate of ``rows / priority weight`` (see
:data:`~repro.serve.api.PRIORITY_CLASSES`), so a tenant flooding the queue
with bulk work advances its own virtual clock and later requests from other
tenants overtake it — no flow starves, and an ``interactive`` flow gets 4×
the share of a ``batch`` flow when both are backlogged.  ``microbatch_rows``
bounds the rows in flight (dispatched but not yet delivered): under a
sustained backlog the surplus waits in the fair queue, so the fair order
decides who enters the pool next (``None`` puts everything queued in
flight at once).  Scheduling never changes *bytes*: each request's chunks
draw from the request's **own** seed streams (the sharding contract of
:mod:`repro.serve.sharded`), so any serving order returns exactly what each
request would have returned alone.

Backpressure and admission: a bounded in-flight row budget makes
:meth:`submit` block (or raise :class:`ServiceOverloaded` with
``wait=False``) while full, exactly as before.  An optional
:class:`~repro.serve.admission.AdmissionPolicy` generalizes that signal to
up-front *rejection* — queue-depth and backlog-row caps plus per-request
deadline (SLO) checks against an observed-service-rate estimate — raising
:class:`~repro.serve.admission.AdmissionRejected` (a
:class:`ServiceOverloaded` subclass; HTTP 429 at the front door).  Once a
request is admitted it is always served.  A caller that stops waiting
should :meth:`SampleRequest.cancel` to release its budget.

Autoscaling: with an :class:`~repro.serve.admission.AutoscalePolicy` the
dispatcher resizes the worker pool toward the demand (rows queued plus
rows in flight: ``ceil(demand rows / rows_per_worker)`` within
``[min_workers, max_workers]``, and never past the core budget) —
immediately up, patiently down.  A resize, like a model swap, stops the
refills: the dispatcher delivers what is in flight and applies it at that
safe point.  Byte-safe by the worker-count-invariance of the sharding
contract.

Fault tolerance: chunk failures / timeouts / stragglers are absorbed by
:class:`~repro.serve.sharded.ChunkPolicy`, a worker death by a pool rebuild
after which the chunk run resubmits every chunk the crash took down, and
pool collapse degrades to byte-identical in-process serving.
:meth:`stats` reports one unified tree (:meth:`ServiceStats.to_dict`):
throughput, queue, latency, workers / autoscale, fault counters, admission
counters and per-tenant latencies.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from concurrent.futures import CancelledError
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.models.base import Surrogate, chunk_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    Tracer,
    request_span_id,
    trace_id_from_child,
    trace_id_from_seed,
)
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    AutoscalePolicy,
    ServiceOverloaded,
)
from repro.serve.api import RequestSpec, priority_weight
from repro.serve.faults import FaultPlan
from repro.serve.sharded import ChunkPolicy, ShardedSampler
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.parallel import WorkerPoolBroken, available_workers

__all__ = ["SampleRequest", "SamplingService", "ServiceOverloaded", "ServiceStats"]

_LOG = get_logger(__name__)


class _SwapTicket:
    """One pending hot-swap: the new model plus a completion event."""

    def __init__(self, model: Surrogate) -> None:
        self.model = model
        self.done = threading.Event()
        self.error: Optional[BaseException] = None

    def resolve(self, error: Optional[BaseException]) -> None:
        self.error = error
        self.done.set()


class SampleRequest:
    """Handle for one submitted request; resolves to a :class:`Table`."""

    def __init__(self, spec: RequestSpec) -> None:
        self.spec = spec
        self.submitted_at = time.perf_counter()
        self._done = threading.Event()
        self._resolved = False
        self._callbacks: List[Callable[["SampleRequest"], object]] = []
        self._result: Optional[Table] = None
        self._error: Optional[BaseException] = None
        self.latency: Optional[float] = None
        self.cancelled = False
        self._budget_released = False
        self._service: Optional["SamplingService"] = None
        # Weighted-fair-queue bookkeeping (owned by the service's queue).
        self._queued = False
        self._wfq_start = 0.0
        # Observability stashes (owned by the service; unset when untraced).
        self._obs_admitted_at: Optional[float] = None
        self._obs_trace_id: Optional[str] = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> Table:
        """Block until the request is served; returns the sampled table.

        A caller that gives up after a timeout should follow with
        :meth:`cancel` — otherwise the admitted rows keep occupying the
        service's backpressure budget until the dispatcher reaches the
        request.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request of {self.spec.n} rows not served within {timeout}s "
                "(cancel() it to release its admission budget)"
            )
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def cancel(self) -> bool:
        """Abandon the request, releasing its backpressure budget.

        Returns ``True`` when the request was cancelled (it resolves
        immediately; :meth:`result` raises :class:`CancelledError`), and
        ``False`` when it had already completed.  A request the dispatcher
        is currently generating cannot be un-generated: its handle still
        resolves as cancelled right away, the budget is still released, and
        the eventually produced table is discarded.
        """
        service = self._service
        if service is None:
            return False
        return service._cancel_request(self)

    def add_done_callback(self, fn: Callable[["SampleRequest"], object]) -> None:
        """Call ``fn(request)`` once the request resolves — delivered, failed
        or cancelled — and before :meth:`done` turns true; at once if it
        already resolved.  Callbacks run outside the service lock."""
        with self._service._lock:
            if not self._resolved:
                self._callbacks.append(fn)
                return
        fn(self)

    def _resolve(
        self, result: Optional[Table], error: Optional[BaseException]
    ) -> bool:
        """Record an outcome once; late outcomes are discarded (→ False).

        The caller holds the service lock and, once it has released it,
        delivers a recorded outcome with :meth:`_complete`.
        """
        if self._resolved:
            return False
        self._resolved = True
        self.latency = time.perf_counter() - self.submitted_at
        self._result = result
        self._error = error
        return True

    def _complete(self) -> None:
        """Run the done callbacks, then wake the waiters."""
        for callback in self._callbacks:
            try:
                callback(self)
            except Exception:
                _LOG.exception("a done callback of a %d-row request failed", self.spec.n)
        self._done.set()


class _FairQueue:
    """Start-time weighted fair queueing over ``(tenant, priority)`` flows.

    Each pushed request receives a virtual *finish* tag::

        start  = max(virtual_time, flow's previous finish)
        finish = start + rows / priority_weight

    and requests pop in finish order (ties: arrival order), one refill of
    the dispatcher's pipeline at a time.  The virtual clock advances to the
    start tag of whatever is being served, so a flow that went idle
    re-enters at the current clock instead of catching up on credit it
    never queued for.  Cancellation is lazy: a discarded request stays in
    the heap and is skipped when it surfaces.  When the queue fully drains,
    the clock and flow tags reset — a fresh backlog starts a fresh round.
    Not thread-safe; the service's lock guards every call.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, SampleRequest]] = []
        self._seq = 0
        self._vtime = 0.0
        self._flow_finish: Dict[Tuple[str, str], float] = {}
        self._live = 0
        self._live_rows = 0

    def __len__(self) -> int:
        return self._live

    @property
    def rows(self) -> int:
        """Rows queued (live requests only)."""
        return self._live_rows

    def push(self, request: SampleRequest) -> None:
        spec = request.spec
        flow = (spec.tenant, spec.priority)
        start = max(self._vtime, self._flow_finish.get(flow, 0.0))
        finish = start + max(spec.n, 1) / priority_weight(spec.priority)
        self._flow_finish[flow] = finish
        request._wfq_start = start
        request._queued = True
        heapq.heappush(self._heap, (finish, self._seq, request))
        self._seq += 1
        self._live += 1
        self._live_rows += spec.n

    def discard(self, request: SampleRequest) -> bool:
        """Remove a queued request (lazy: its heap entry dies when popped)."""
        if not request._queued:
            return False
        request._queued = False
        self._live -= 1
        self._live_rows -= request.spec.n
        return True

    def pop_batch(self, max_rows: Optional[int], in_flight_rows: int) -> List[SampleRequest]:
        """The next requests in fair order, keeping the rows in flight
        (``in_flight_rows`` already dispatched, plus those popped here)
        within ``max_rows``.

        With no rows in flight it yields at least one request when any is
        queued: a request larger than the bound must not starve, so it runs
        alone.  ``None`` pops everything.
        """
        batch: List[SampleRequest] = []
        rows = in_flight_rows
        while self._heap:
            finish, seq, request = self._heap[0]
            if not request._queued:
                heapq.heappop(self._heap)
                continue
            if (batch or rows) and max_rows is not None and rows + request.spec.n > max_rows:
                break
            heapq.heappop(self._heap)
            request._queued = False
            self._live -= 1
            self._live_rows -= request.spec.n
            self._vtime = max(self._vtime, request._wfq_start)
            batch.append(request)
            rows += request.spec.n
        if self._live == 0:
            self._heap.clear()
            self._flow_finish.clear()
            self._vtime = 0.0
        return batch


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time view of service health (see :meth:`to_dict`)."""

    #: Rows delivered per second of service uptime.
    rows_per_second: float
    #: Requests waiting in the fair queue (not yet dispatched to the pool).
    queue_depth: int
    #: Rows admitted but not yet delivered (the backpressure quantity).
    in_flight_rows: int
    #: Median / 95th-percentile request latency (s), estimated from the
    #: ``repro_serve_request_latency_seconds`` histogram.
    p50_latency: float
    p95_latency: float
    total_requests: int
    total_rows: int
    uptime: float
    #: Supervised worker-pool rebuilds after worker death.
    pool_restarts: int = 0
    #: Chunk resubmissions after task failures or deadline expiries.
    chunk_retries: int = 0
    #: Chunk attempts abandoned at their per-chunk deadline.
    chunk_timeouts: int = 0
    #: Straggler duplicates submitted / duplicates that beat their primary.
    hedges: int = 0
    hedge_wins: int = 0
    #: Requests served by the in-process fallback after pool collapse.
    degraded_passes: int = 0
    #: Requests abandoned via :meth:`SampleRequest.cancel`.
    cancelled_requests: int = 0
    #: Current worker count and autoscale activity.
    workers: int = 1
    scale_ups: int = 0
    scale_downs: int = 0
    #: True once the pool collapsed and the service runs in-process.
    degraded: bool = False
    #: Admission counters (empty mapping = admission control disabled).
    admission: Mapping[str, int] = field(default_factory=dict)
    #: Per-tenant ``{"requests", "rows", "p50_wait_s", "p95_wait_s"}``.
    tenants: Mapping[str, Mapping[str, float]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The unified stats tree.

        Stable field names shared by the CLI ``--json`` payloads, the HTTP
        ``/stats`` route and the scenario reports' ``timing.service`` block
        — one namespace for throughput, queue, latency, worker/autoscale,
        fault, admission and per-tenant counters.
        """
        return {
            "throughput": {
                "rows_per_second": round(self.rows_per_second, 3),
                "total_requests": self.total_requests,
                "total_rows": self.total_rows,
                "uptime_s": round(self.uptime, 6),
            },
            "queue": {
                "depth": self.queue_depth,
                "in_flight_rows": self.in_flight_rows,
            },
            "latency": {
                "p50_s": round(self.p50_latency, 6),
                "p95_s": round(self.p95_latency, 6),
            },
            "workers": {
                "current": self.workers,
                "scale_ups": self.scale_ups,
                "scale_downs": self.scale_downs,
                "degraded": self.degraded,
            },
            "faults": {
                "pool_restarts": self.pool_restarts,
                "chunk_retries": self.chunk_retries,
                "chunk_timeouts": self.chunk_timeouts,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "degraded_passes": self.degraded_passes,
                "cancelled_requests": self.cancelled_requests,
            },
            "admission": dict(self.admission),
            "tenants": {
                tenant: dict(values) for tenant, values in sorted(self.tenants.items())
            },
        }


class SamplingService:
    """Serve sampling requests from a fitted surrogate (or a registry entry).

    Parameters
    ----------
    model:
        The fitted surrogate to serve.
    workers / chunk_size:
        Forwarded to the underlying :class:`ShardedSampler`.
    max_inflight_rows:
        The backpressure budget: total rows admitted-but-undelivered before
        :meth:`submit` blocks.  A request larger than the whole budget is
        admitted when the service is otherwise idle (it would never fit
        alongside other work, but must not deadlock alone).
    chunk_policy / fault_plan / max_pool_restarts:
        Forwarded to the sharded engine: the per-chunk resilience policy,
        an optional deterministic fault-injection plan (chaos runs), and the
        pool's restart budget for crash recovery.
    admission:
        Optional :class:`~repro.serve.admission.AdmissionPolicy`: reject
        (instead of queue) on queue-depth / backlog-row caps or a blown
        per-request deadline estimate.  ``None`` admits everything.
    autoscale:
        Optional :class:`~repro.serve.admission.AutoscalePolicy`: the
        dispatcher resizes the pool with demand between its bounds.
    microbatch_rows:
        Upper bound on the rows in flight: dispatched to the pool but not
        yet delivered.  A single request larger than the bound is dispatched
        alone when nothing else is in flight.  ``None`` (default) dispatches
        everything queued at each refill; a bound keeps a sustained backlog
        in the fair queue, so the weighted fair order decides who enters
        the pool next.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` shared by every layer
        of this service's stack (sampler fault counters, pool gauges,
        admission, the request/latency instruments here).  ``None`` creates
        a private registry, exposed as :attr:`metrics`; the front door
        renders it on ``GET /metrics``.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When set, each
        request records its span taxonomy (``request`` → ``admission`` /
        ``queue_wait`` / ``dispatch`` / ``chunk[i]``–``attempt[j]`` /
        ``worker_compute`` / ``assemble`` / ``deliver``); ``None`` is a
        strict no-op — served bytes are identical either way.

    The service starts its pool and dispatcher on construction and is a
    context manager; :meth:`close` drains the queue and the pipeline, then
    shuts down.
    """

    def __init__(
        self,
        model: Surrogate,
        *,
        workers: Optional[int] = None,
        chunk_size: int = ShardedSampler.DEFAULT_CHUNK_SIZE,
        max_inflight_rows: int = 4_000_000,
        chunk_policy: Optional[ChunkPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_pool_restarts: int = 5,
        admission: Optional[AdmissionPolicy] = None,
        autoscale: Optional[AutoscalePolicy] = None,
        microbatch_rows: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_inflight_rows < 1:
            raise ValueError(f"max_inflight_rows must be positive, got {max_inflight_rows}")
        if microbatch_rows is not None and microbatch_rows < 1:
            raise ValueError(f"microbatch_rows must be positive or None, got {microbatch_rows}")
        if workers is None and autoscale is not None:
            workers = autoscale.min_workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tracer = tracer
        self._sampler = ShardedSampler(
            model,
            workers=workers,
            chunk_size=chunk_size,
            chunk_policy=chunk_policy,
            fault_plan=fault_plan,
            max_pool_restarts=max_pool_restarts,
            metrics=self.metrics,
            tracer=tracer,
        )
        self.max_inflight_rows = int(max_inflight_rows)
        self._admission = (
            AdmissionController(admission, metrics=self.metrics)
            if admission is not None
            else None
        )
        self._autoscale = autoscale
        self._microbatch_rows = microbatch_rows
        self._lock = threading.Condition()
        self._queue = _FairQueue()
        self._in_flight_rows = 0
        self._pending_requests = 0
        # FIFO admission tickets: submitters are admitted strictly in
        # arrival order, so an oversized request (admissible only when the
        # service drains) cannot be starved by a stream of small requests
        # slipping past it every time the budget frees up.  The deque holds
        # the tickets still waiting; only its front may admit.
        self._ticket_counter = 0
        self._admission_waiters: Deque[int] = deque()
        self._pending_swaps: Deque[_SwapTicket] = deque()
        self._closing = False
        self._shrink_streak = 0
        registry = self.metrics
        # The sampler's chunk fault counters, read back by :meth:`stats`.
        self._m_chunk = {
            key: registry.counter(f"repro_serve_chunk_{key}_total")
            for key in ("retries", "timeouts", "hedges", "hedge_wins")
        }
        self._m_requests = registry.counter(
            "repro_serve_requests_total",
            "Requests delivered without error, by tenant.",
            labels=("tenant",),
        )
        self._m_request_errors = registry.counter(
            "repro_serve_request_errors_total", "Requests that resolved with an error."
        )
        self._m_rows = registry.counter(
            "repro_serve_rows_total", "Rows delivered, by tenant.", labels=("tenant",)
        )
        self._m_batches = registry.counter(
            "repro_serve_batches_total", "Pipeline refills that dispatched requests."
        )
        self._m_degraded_passes = registry.counter(
            "repro_serve_degraded_passes_total",
            "Requests served in-process after pool collapse.",
        )
        self._m_cancelled = registry.counter(
            "repro_serve_cancelled_requests_total", "Requests abandoned via cancel()."
        )
        self._m_scale_ups = registry.counter(
            "repro_serve_scale_ups_total", "Autoscale pool expansions."
        )
        self._m_scale_downs = registry.counter(
            "repro_serve_scale_downs_total", "Autoscale pool shrinks."
        )
        self._m_model_swaps = registry.counter(
            "repro_serve_model_swaps_total", "Hot model swaps applied."
        )
        self._m_latency = registry.histogram(
            "repro_serve_request_latency_seconds",
            "End-to-end request latency (submit to deliver), by flow.",
            labels=("tenant", "priority"),
        )
        self._m_queue_wait = registry.histogram(
            "repro_serve_queue_wait_seconds",
            "Admission-to-dispatch queue wait, by flow.",
            labels=("tenant", "priority"),
        )
        self._g_queue_depth = registry.gauge(
            "repro_serve_queue_depth", "Requests waiting for the dispatcher."
        )
        self._g_inflight_rows = registry.gauge(
            "repro_serve_inflight_rows", "Rows admitted but not yet delivered."
        )
        self._g_workers = registry.gauge(
            "repro_serve_workers", "Current worker count."
        )
        self._g_degraded = registry.gauge(
            "repro_serve_degraded", "1 once the pool collapsed to in-process serving."
        )
        self._g_pool_pending = registry.gauge(
            "repro_serve_pool_pending_tasks",
            "Chunk tasks submitted to the pool and not yet resolved.",
        )
        self._started_at = time.perf_counter()
        # Spawn the worker pool *before* the dispatcher thread exists: the
        # pool forks at start on platforms where fork is the default, and
        # forking a multi-threaded process is where the trouble lives.
        self._sampler.start()
        # Seed the level gauges so every required series renders on a
        # ``/metrics`` scrape that lands before the first request.
        self._g_queue_depth.set(0)
        self._g_inflight_rows.set(0)
        self._g_workers.set(self._sampler.workers)
        self._g_degraded.set(0)
        self._g_pool_pending.set(0)
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- client API --------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._sampler.workers

    @property
    def chunk_size(self) -> int:
        return self._sampler.chunk_size

    @property
    def degraded(self) -> bool:
        """True once the pool collapsed and the service runs in-process."""
        return self._sampler.pool_broken

    @property
    def model(self) -> Surrogate:
        """The surrogate currently being served."""
        return self._sampler.model

    @property
    def model_swaps(self) -> int:
        """Hot model swaps applied since the service started."""
        return int(self._m_model_swaps.total())

    @property
    def tracer(self) -> Optional[Tracer]:
        """The installed span collector (``None`` when tracing is off)."""
        return self._tracer

    def swap_model(
        self, model: Surrogate, *, wait: bool = True, timeout: Optional[float] = None
    ) -> None:
        """Hot-swap the served model with **zero lost requests**.

        The swap is queued to the dispatcher.  A pending swap stops the
        refills; the dispatcher delivers every in-flight request and applies
        the swap at that safe point.  Requests already submitted keep their
        admission slots and are served (those already in flight by the old
        model, those still queued by the new one — submit-then-swap ordering
        is only deterministic across a drained queue, which is how the
        scenario engine drives it), and the worker pool is rebuilt from the
        new model's snapshot.  With ``wait=True`` (default) blocks until the
        swap has been applied; raises the swap's error if the rebuild fails.
        """
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        ticket = _SwapTicket(model)
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            self._pending_swaps.append(ticket)
            self._lock.notify_all()  # wake an idle dispatcher
        if wait:
            if not ticket.done.wait(timeout):
                raise TimeoutError(f"model swap not applied within {timeout}s")
            if ticket.error is not None:
                raise ticket.error

    def submit(self, spec: RequestSpec, *, wait: bool = True) -> SampleRequest:
        """Queue one request; returns its :class:`SampleRequest` handle.

        ``spec`` is a :class:`~repro.serve.api.RequestSpec`, whose
        ``sampling_mode`` defaults to the relaxed ``"fast"`` mode (ask for
        ``"exact"`` for the bit-reproducible path); anything else, a bare
        row count included, raises ``TypeError``.  Blocks while the
        in-flight budget is full; with ``wait=False`` raises
        :class:`ServiceOverloaded` instead.  With an admission policy
        configured, over-limit or deadline-blown requests raise
        :class:`~repro.serve.admission.AdmissionRejected` regardless of
        ``wait``.
        """
        if not isinstance(spec, RequestSpec):
            raise TypeError(f"expected a RequestSpec, got {type(spec).__name__}")
        handle = SampleRequest(spec)
        handle._service = self
        n = spec.n
        with self._lock:
            if self._closing:
                raise RuntimeError("service is closed")
            if self._admission is not None:
                self._admission.check(
                    spec,
                    pending_requests=self._pending_requests,
                    backlog_rows=self._in_flight_rows,
                )
            ticket = self._ticket_counter
            self._ticket_counter += 1
            self._admission_waiters.append(ticket)
            try:
                while not (
                    self._admission_waiters[0] == ticket
                    and (self._admissible(n) or self._closing)
                ):
                    if not wait:
                        raise ServiceOverloaded(
                            f"in-flight budget full ({self._in_flight_rows}/"
                            f"{self.max_inflight_rows} rows, "
                            f"{len(self._admission_waiters) - 1} submitter(s) waiting); "
                            "retry later"
                        )
                    self._lock.wait()
                if self._closing:
                    raise RuntimeError("service is closed")
                self._in_flight_rows += n
                self._pending_requests += 1
                self._queue.push(handle)
                handle._obs_admitted_at = time.perf_counter()
                self._set_queue_gauges_locked()
            finally:
                # The ticket leaves the line whether we admitted, refused or
                # were closed; whoever is behind may now reach the front.
                self._admission_waiters.remove(ticket)
                self._lock.notify_all()
        return handle

    def sample(self, spec: RequestSpec) -> Table:
        """Synchronous convenience: :meth:`submit` ``spec`` and wait for the table."""
        return self.submit(spec).result()

    def stats(self) -> ServiceStats:
        """A :class:`ServiceStats` snapshot, read from the metrics registry.

        The counters here and the ``repro_serve_*`` series on ``/metrics``
        are the same numbers by construction, and the latency percentiles
        are quantiles of ``repro_serve_request_latency_seconds`` (per tenant:
        merged over priority) — :meth:`stats` is a *view* of the registry,
        not a second set of books.
        """
        with self._lock:
            queue_depth = len(self._queue)
            in_flight = self._in_flight_rows
        latency = self._m_latency
        tenant_rows = self._m_rows.series()
        total_rows = int(self._m_rows.total())
        total_requests = int(
            self._m_requests.total() + self._m_request_errors.total()
        )
        tenants = {
            tenant: {
                "requests": int(requests),
                "rows": int(tenant_rows.get((tenant,), 0)),
                "p50_wait_s": latency.quantile(0.50, tenant=tenant),
                "p95_wait_s": latency.quantile(0.95, tenant=tenant),
            }
            for (tenant,), requests in self._m_requests.series().items()
        }
        uptime = time.perf_counter() - self._started_at
        self._g_queue_depth.set(queue_depth)
        self._g_inflight_rows.set(in_flight)
        self._g_workers.set(self._sampler.workers)
        self._g_degraded.set(1 if self._sampler.pool_broken else 0)
        self._g_pool_pending.set(self._sampler.pool_pending_tasks)
        return ServiceStats(
            rows_per_second=total_rows / uptime if uptime > 0 else 0.0,
            queue_depth=queue_depth,
            in_flight_rows=in_flight,
            p50_latency=latency.quantile(0.50),
            p95_latency=latency.quantile(0.95),
            total_requests=total_requests,
            total_rows=total_rows,
            uptime=uptime,
            pool_restarts=self._sampler.pool_restarts,
            chunk_retries=int(self._m_chunk["retries"].total()),
            chunk_timeouts=int(self._m_chunk["timeouts"].total()),
            hedges=int(self._m_chunk["hedges"].total()),
            hedge_wins=int(self._m_chunk["hedge_wins"].total()),
            degraded_passes=int(self._m_degraded_passes.total()),
            cancelled_requests=int(self._m_cancelled.total()),
            workers=self._sampler.workers,
            scale_ups=int(self._m_scale_ups.total()),
            scale_downs=int(self._m_scale_downs.total()),
            degraded=self._sampler.pool_broken,
            admission=self._admission.snapshot() if self._admission is not None else {},
            tenants=tenants,
        )

    def close(self) -> None:
        """Serve every queued and in-flight request, stop the dispatcher,
        shut the pool down."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            self._lock.notify_all()
        self._dispatcher.join()
        self._sampler.close()

    def __enter__(self) -> "SamplingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- cancellation ------------------------------------------------------------
    def _cancel_request(self, request: SampleRequest) -> bool:
        with self._lock:
            if request._resolved:
                return False
            self._queue.discard(request)  # no-op once a refill dispatched it
            request.cancelled = True
            request._resolve(None, CancelledError("request cancelled"))
            self._release_budget_locked(request)
            self._m_cancelled.inc()
            self._set_queue_gauges_locked()
            self._lock.notify_all()  # budget freed: wake blocked submitters
        request._complete()
        return True

    def _set_queue_gauges_locked(self) -> None:
        """Refresh the queue-level gauges (caller holds the service lock)."""
        self._g_queue_depth.set(len(self._queue))
        self._g_inflight_rows.set(self._in_flight_rows)

    def _release_budget_locked(self, request: SampleRequest) -> None:
        """Release the request's admitted rows exactly once (cancel + finish
        can both reach here)."""
        if not request._budget_released:
            request._budget_released = True
            self._in_flight_rows -= request.spec.n
            self._pending_requests -= 1

    # -- dispatcher --------------------------------------------------------------
    def _admissible(self, n: int) -> bool:
        if self._in_flight_rows == 0:
            return True  # an oversized request must not deadlock an idle service
        return self._in_flight_rows + n <= self.max_inflight_rows

    def _dispatch_loop(self) -> None:
        """The pipeline: refill from the fair queue, deliver the oldest, repeat.

        ``pipeline`` holds the in-flight requests, oldest first, as
        ``[request, sizes, children, handles, error, run, dispatched_at]``.
        They share one chunk run, so hedging sees every chunk completed
        before; a fresh run starts when the pipeline empties or the pool
        collapses.  A pending swap or resize stops the refills until the
        pipeline has drained: the safe point where it applies.
        """
        pipeline: Deque[list] = deque()
        pipeline_rows, run, delivered_at = 0, None, 0.0
        resize_to: Optional[int] = None
        while True:
            with self._lock:
                while not (pipeline or self._queue or self._pending_swaps or self._closing):
                    self._lock.wait()
                swaps: List[_SwapTicket] = []
                if not pipeline:
                    swaps = list(self._pending_swaps)
                    self._pending_swaps.clear()
                batch: List[SampleRequest] = []
                if not self._pending_swaps and (resize_to is None or not pipeline):
                    batch = self._queue.pop_batch(self._microbatch_rows, pipeline_rows)
                queued_rows = self._queue.rows
                self._set_queue_gauges_locked()
                if self._closing and not (pipeline or batch or swaps):
                    return
            if swaps:
                self._apply_swaps(swaps)
            if batch:
                self._m_batches.inc()
                pipeline_rows += sum(request.spec.n for request in batch)
                resize_to = self._autoscale_target(queued_rows + pipeline_rows) or resize_to
            if resize_to is not None and not pipeline:
                self._resize(resize_to)
                resize_to = None
            if batch:
                if not pipeline or (not run.in_process and self._sampler.pool_broken):
                    run = self._sampler.chunk_run()
                pipeline.extend(self._dispatch(run, batch))
            if not pipeline:
                continue
            request, sizes, children, handles, error, entry_run, dispatched_at = pipeline.popleft()
            pipeline_rows -= request.spec.n
            table: Optional[Table] = None
            if error is None:
                try:
                    table = self._serve_request(entry_run, request, sizes, children, handles)
                except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                    error = exc
            self._finish(request, table, error)
            now = time.perf_counter()
            if self._admission is not None:
                self._admission.observe_batch(request.spec.n, now - max(dispatched_at, delivered_at))
            delivered_at = now

    def _autoscale_target(self, demand_rows: int) -> Optional[int]:
        """The worker count the demand calls for, or ``None`` to keep the pool.

        Evaluated once per refill.  Scale-up is immediate; scale-down waits
        for ``shrink_patience`` consecutive under-demand refills.  The target
        never exceeds the core budget
        (:func:`~repro.utils.parallel.available_workers`): workers past it
        only contend for the same CPUs.  A broken pool is never resized —
        degraded mode is the pool's verdict, not a capacity problem.
        """
        policy = self._autoscale
        if policy is None or self._sampler.pool_broken:
            return None
        target = min(policy.target_workers(demand_rows), available_workers(None))
        if target < self._sampler.workers:
            self._shrink_streak += 1
            if self._shrink_streak < policy.shrink_patience:
                return None
        self._shrink_streak = 0
        return target if target != self._sampler.workers else None

    def _resize(self, workers: int) -> None:
        """Resize the pool at a safe point (nothing in flight); byte-safe by
        the sharding contract.  A failure keeps the current size."""
        current = self._sampler.workers
        if workers == current or self._sampler.pool_broken:
            return
        try:
            self._sampler.resize(workers)
        except Exception:
            _LOG.warning("resizing the pool to %d workers failed", workers, exc_info=True)
            return
        self._g_workers.set(self._sampler.workers)
        (self._m_scale_ups if workers > current else self._m_scale_downs).inc()

    def _apply_swaps(self, swaps: List[_SwapTicket]) -> None:
        """Install the most recent pending model (earlier ones are superseded).

        One pool rebuild regardless of how many swaps raced in; every ticket
        resolves with the rebuild's outcome.  A failed rebuild must not take
        the dispatcher down — the error goes to the swap's waiters, and the
        service keeps serving on whatever model survived.
        """
        error: Optional[BaseException] = None
        try:
            self._sampler.swap_model(swaps[-1].model)
            self._m_model_swaps.inc()
        except BaseException as exc:  # noqa: BLE001 - forwarded to the waiters
            error = exc
        for ticket in swaps:
            ticket.resolve(error)

    def _dispatch(self, run, batch: List[SampleRequest]) -> List[list]:
        """Submit the chunks of one refill's requests; their pipeline entries.

        Every chunk goes through one :meth:`ShardedSampler.chunk_run` —
        pooled, or in-process with ``workers=1`` or after pool collapse.
        The chunks are *interleaved round-robin* across the refill's
        requests, so no request's chunks all queue behind another's.  A
        request whose chunk plan or submission fails carries its error to
        its delivery; the others are unaffected.
        """
        tracer = self._tracer
        popped_at = time.perf_counter()
        plans: List[list] = []
        for request in batch:
            spec = request.spec
            admitted_at = (
                request._obs_admitted_at
                if request._obs_admitted_at is not None
                else request.submitted_at
            )
            self._m_queue_wait.observe(
                max(popped_at - admitted_at, 0.0),
                tenant=spec.tenant,
                priority=spec.priority,
            )
            sizes, children = [], []
            error: Optional[BaseException] = None
            try:
                sizes, children = chunk_plan(spec.n, self._sampler.chunk_size, spec.seed)
            except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                error = exc
            if tracer is not None:
                trace_id = (
                    trace_id_from_child(children[0])
                    if children
                    else trace_id_from_seed(spec.seed)
                )
                request._obs_trace_id = trace_id
                root = request_span_id(trace_id)
                tracer.add(
                    "admission",
                    trace_id,
                    parent=root,
                    start=request.submitted_at,
                    end=admitted_at,
                    attrs={"tenant": spec.tenant, "priority": spec.priority},
                )
                tracer.add("queue_wait", trace_id, parent=root, start=admitted_at, end=popped_at)
            plans.append([request, sizes, children, [], error, run, popped_at])

        dispatch_started = time.perf_counter()
        pool_died = False
        for index in range(max((len(plan[1]) for plan in plans), default=0)):
            for plan in plans:
                request, sizes, children, handles, error = plan[:5]
                if pool_died or error is not None or index >= len(sizes):
                    continue
                try:
                    handles.append(
                        run.submit(
                            index, sizes[index], children[index], request.spec.sampling_mode
                        )
                    )
                except WorkerPoolBroken:
                    pool_died = True  # requests left short of handles rerun at delivery
                except BaseException as exc:  # noqa: BLE001 - forwarded to the caller
                    plan[4] = exc
                    for handle in handles:
                        handle.cancel()

        if tracer is not None:
            # One dispatch span per refill, attributed to the first traced
            # request (the refill is the unit of dispatch, not the request).
            first_trace = next(
                (plan[0]._obs_trace_id for plan in plans if plan[0]._obs_trace_id),
                None,
            )
            if first_trace is not None:
                tracer.add(
                    "dispatch",
                    first_trace,
                    parent=request_span_id(first_trace),
                    start=dispatch_started,
                    attrs={"batch_requests": len(plans), "pooled": not run.in_process},
                )
        return plans

    def _serve_request(self, run, request: SampleRequest, sizes, children, handles) -> Table:
        """Resolve one request's chunk handles and assemble its table.

        A worker crash never reaches here: the chunk run resubmits what
        it took down.  If the pool collapsed under the request (out of
        restarts: :class:`~repro.utils.parallel.WorkerPoolBroken`) — while
        it was submitting or while its chunks ran — its handles are
        cancelled and its chunks resubmitted to a fresh run, in-process
        from then on: degraded, never dropped.  Every request
        served in-process because the pool is broken counts as a degraded
        pass.
        """
        mode = request.spec.sampling_mode
        try:
            try:
                chunks = [handle.result() for handle in handles]
            except WorkerPoolBroken:
                chunks = []
            if len(chunks) < len(sizes):
                for handle in handles:
                    handle.cancel()
                run = self._sampler.chunk_run()
                handles = [
                    run.submit(index, size, child, mode)
                    for index, (size, child) in enumerate(zip(sizes, children))
                ]
                chunks = [handle.result() for handle in handles]
        finally:
            for handle in handles:
                handle.cancel()  # a failed chunk's siblings; resolved ones ignore it
        if run.in_process and self._sampler.pool_broken:
            self._m_degraded_passes.inc()
            self._g_degraded.set(1)
        assemble_started = time.perf_counter()
        table = self._sampler.assemble(chunks, seed=request.spec.seed, sampling_mode=mode)
        trace_id = request._obs_trace_id
        if self._tracer is not None and trace_id is not None:
            self._tracer.add(
                "assemble",
                trace_id,
                parent=request_span_id(trace_id),
                start=assemble_started,
                attrs={"chunks": len(chunks), "rows": request.spec.n},
            )
        return table

    def _finish(
        self, request: SampleRequest, table: Optional[Table], error: Optional[BaseException]
    ) -> None:
        deliver_started = time.perf_counter()
        spec = request.spec
        with self._lock:
            delivered = request._resolve(table, error)
            self._release_budget_locked(request)
            if delivered and error is not None:
                self._m_request_errors.inc()
            elif delivered:
                self._m_requests.inc(tenant=spec.tenant)
                self._m_rows.inc(spec.n, tenant=spec.tenant)
                self._m_latency.observe(
                    request.latency, tenant=spec.tenant, priority=spec.priority
                )
            self._set_queue_gauges_locked()
            self._lock.notify_all()  # budget freed: wake blocked submitters
        if delivered:
            request._complete()
        tracer = self._tracer
        if tracer is not None and delivered and request._obs_trace_id is not None:
            trace_id = request._obs_trace_id
            root = request_span_id(trace_id)
            tracer.add(
                "deliver",
                trace_id,
                parent=root,
                start=deliver_started,
                attrs={"error": type(error).__name__} if error is not None else None,
            )
            tracer.add(
                "request",
                trace_id,
                parent=None,
                start=request.submitted_at,
                end=request.submitted_at + request.latency,
                attrs={
                    "tenant": spec.tenant,
                    "priority": spec.priority,
                    "rows": spec.n,
                    "mode": spec.sampling_mode,
                },
            )
