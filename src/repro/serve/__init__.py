"""repro.serve — the sharded, multi-process sampling service.

The serving layer the repo has been growing toward: PR 4 gave every
surrogate a relaxed ``sampling_mode="fast"`` and a bounded-memory
``sample_batches`` streaming API whose chunks each draw from their own
:class:`numpy.random.SeedSequence` child stream.  That made chunks
embarrassingly parallel *and* worker-count-invariant by construction; this
package is the machinery that cashes the invariant in:

:class:`~repro.serve.sharded.ShardedSampler`
    Fans a request's chunks across a persistent pool of worker processes
    (each holding a deserialized model snapshot with warmed serving caches)
    and streams the reassembled chunks back in order.  **The sharding
    contract:** output bytes for a given ``(seed, chunk_size)`` are
    identical for any worker count including 1, and equal to
    ``Table.concat(model.sample_batches(...))`` — sharding changes wall
    clock, never data.  Every chunk takes one path: a chunk run hands out a
    handle per chunk, either a pooled one (the only code that resubmits a
    chunk) or a lazy in-process one making the workers' exact call — the
    in-process handle serves
    ``workers=1``, one-chunk ``sample_batches`` requests and serving after
    pool collapse, with the same spans and the same :class:`ChunkError`.

:class:`~repro.serve.registry.ModelRegistry`
    Versioned storage of fitted-surrogate snapshots (``<root>/<name>/vN.pkl``)
    with warm-started packed serving caches at registration and load, so a
    freshly (re)started server answers its first request at steady-state
    latency.

:class:`~repro.serve.service.SamplingService`
    The front end: a thread-safe request queue with a pipelined
    dispatcher (it refills the pool from the fair queue each time it
    delivers a request, so the chunks of every request in flight share the
    workers and the pool never drains at a request boundary; with
    ``microbatch_rows`` set, that many rows at most are in flight),
    per-request seeds (sharing the pool is invisible in the bytes),
    backpressure via a bounded in-flight row budget, and a stats endpoint
    (rows/s, queue depth, p50/p95 latency, fault counters).

The fault-tolerance contract
----------------------------
Because chunk ``i`` draws only from the ``i``-th seed child, a re-executed
chunk regenerates **identical bytes** — so every recovery mechanism below is
proven by equality against the fault-free run (``tests/test_serve_faults.py``),
not by statistics:

* **Crash recovery** — a worker death (``BrokenProcessPool``) costs one
  pool rebuild: the :class:`~repro.utils.parallel.WorkerPool` forks fresh
  workers that re-run the snapshot/warm-cache initializer once per crashed
  generation, and the chunk run, the one layer that resubmits, resubmits
  every chunk attempt the crash took down at once.  A crash is not charged
  to a chunk's retry budget; ``max_pool_restarts`` bounds the rebuilds and
  restart counts are reported in the stats.
* **Per-chunk retry / timeout / hedging**
  (:class:`~repro.serve.sharded.ChunkPolicy`) — failed chunks are
  resubmitted at once, up to ``max_retries`` times; a chunk past
  its per-attempt ``timeout`` is abandoned and resubmitted; with
  ``hedge_multiplier`` set, a chunk slower than that multiple of the run's
  median chunk latency gets a duplicate raced against it, first success
  wins (both finishing is asserted byte-equal).  Exhausted budgets raise
  :class:`~repro.serve.sharded.ChunkError` carrying the chunk index/size,
  after in-flight siblings are cancelled.
* **Degraded mode** — if the pool itself gives up
  (:class:`~repro.utils.parallel.WorkerPoolBroken`), the service's
  dispatcher cancels the affected requests' chunk handles and resubmits
  their chunks in-process, as it does for every later request: slower,
  byte-identical, zero queued requests lost.
  ``ServiceStats.degraded_passes`` counts every request served in-process
  because the pool is broken.
* **Cancellation** — :meth:`~repro.serve.service.SampleRequest.cancel`
  releases an abandoned request's backpressure budget exactly once (the
  companion to ``result(timeout=...)``), so a stuck or slow request cannot
  consume admission capacity forever.
* **Deterministic chaos** — :class:`~repro.serve.faults.FaultPlan` injects
  worker kills, chunk delays and one-shot failures at named chunk indices
  through the worker initializer, with cross-process exactly-once token
  latches; ``repro-experiments serve --fault-plan "kill@1,delay@3:0.2"``
  replays a chaos run end to end and checks every served table against
  the fault-free in-process reference.

The chunk return path (the serving data plane)
----------------------------------------------
A pooled chunk comes back as the worker's return value: the pool pickles
the chunk :class:`~repro.tabular.table.Table`, which is its ``float64``
numerical and ``int32`` dictionary-code buffers plus a small schema and
vocabulary header — categoricals stay codes, never decoded strings.  An
abandoned attempt (a timeout, a hedge loser, a cancel, a worker crash)
leaves nothing behind to clean up.

Quickstart::

    from repro.serve import ModelRegistry, RequestSpec, SamplingService

    registry = ModelRegistry("models/")
    registry.register("tvae-prod", fitted_model)

    with SamplingService(registry.get("tvae-prod"), workers=4) as service:
        table = service.sample(RequestSpec(1_000_000, seed=7))  # one request
        stats = service.stats()                                 # rows/s, p95, ...

The serving API, request by request
----------------------------------
Each layer takes one request form.  Every request-layer entry point —
``SamplingService.submit``/``sample``, the front door, HTTP, both CLIs and
the scenarios — takes the same frozen
:class:`~repro.serve.api.RequestSpec` — ``(n, seed, sampling_mode, tenant,
priority, deadline)``, fast mode by default — and serves bytes that depend
only on ``(n, seed, sampling_mode)``; tenancy, priority and deadlines steer
*when* a request is served, never *what*.  The sharded engine below it
takes the model's own ``(n, *, seed=None, sampling_mode="exact")``:

:class:`~repro.serve.api.RequestSpec`
    The request contract.  ``priority`` is one of the three
    :data:`~repro.serve.api.PRIORITY_CLASSES` (``interactive`` weight 4 >
    ``normal`` 2 > ``batch`` 1); the dispatcher runs start-time weighted
    fair queueing over ``(tenant, priority)`` flows, so a bursty tenant
    cannot starve a steady one.  A bare row count is not a request:
    ``submit(1000)`` raises ``TypeError``.
:class:`~repro.serve.admission.AdmissionPolicy` /
:class:`~repro.serve.admission.AdmissionRejected`
    SLO-aware admission control: reject (instead of queue) on queue-depth
    or backlog-row caps, or when the EMA service-rate estimator says the
    request's ``deadline`` is already blown.  Rejections carry a
    ``reason`` and ``retry_after`` hint; the HTTP front door maps them to
    ``429`` + ``Retry-After``.  Once admitted, a request is always served.
:class:`~repro.serve.http.FrontDoor`
    The multi-tenant front door: routes each request to the named backend
    service (registry stages ``prod``/``canary`` serving concurrently) with
    the most free slots, and optionally speaks stdlib-only HTTP
    (``POST /sample``, ``GET /stats|/models|/metrics|/healthz``) from a
    threaded server, one thread per exchange.
:func:`~repro.serve.api.table_fingerprint`
    The byte contract: a SHA-256 over schema + exact cell bytes, shared by
    scenario reports, HTTP ``fingerprint_only`` responses and the CI
    front-door smoke.

Stats are one tree everywhere: :meth:`ServiceStats.to_dict` (throughput /
queue / latency / workers / faults / admission / tenants) is what the CLI
``--json`` payloads, HTTP ``GET /stats`` and ``ScenarioReport`` timing
layers all embed.

Observability (the ``repro.obs`` plane)
---------------------------------------
Every layer above writes into one
:class:`~repro.obs.metrics.MetricsRegistry` per service
(:attr:`SamplingService.metrics`), and the stats tree is a *view* of that
registry, the only store of serving stats — the numbers on
``/stats`` and ``/metrics`` are the same by construction, latency
percentiles included.  The serving metric names:

* requests/rows — ``repro_serve_requests_total{tenant}``,
  ``repro_serve_request_errors_total``, ``repro_serve_rows_total{tenant}``,
  ``repro_serve_batches_total`` (the dispatcher's refills);
* flow latency — ``repro_serve_request_latency_seconds{tenant,priority}``
  and ``repro_serve_queue_wait_seconds{tenant,priority}`` (histograms over
  the log-spaced :data:`~repro.obs.metrics.DEFAULT_LATENCY_BUCKETS`);
* levels — ``repro_serve_queue_depth``, ``repro_serve_inflight_rows``,
  ``repro_serve_workers``, ``repro_serve_degraded``,
  ``repro_serve_pool_pending_tasks``, ``repro_serve_pool_restarts``;
* faults — ``repro_serve_chunk_{retries,timeouts,hedges,hedge_wins}_total``,
  ``repro_serve_degraded_passes_total``,
  ``repro_serve_cancelled_requests_total``;
* control — ``repro_serve_admission_{admitted,rejected}_total`` (rejects by
  ``reason``), ``repro_serve_model_swaps_total``.

``GET /metrics`` on the front door serves the Prometheus text page over
every backend (series tagged ``backend="<name>"``)::

    curl -s http://127.0.0.1:8080/metrics | grep repro_serve_requests_total

Tracing is request-scoped and seed-derived: install a
:class:`~repro.obs.tracing.Tracer` (``SamplingService(tracer=...)``) and
each request records the span taxonomy ``request`` → ``admission`` /
``queue_wait`` / ``dispatch`` / ``chunk[i]`` → ``attempt[j]`` /
``worker_compute`` / ``assemble`` / ``deliver``.  Trace and span IDs hash the request seed's
``SeedSequence`` identity (the same trick the fault plane uses), so
worker-side spans stitch under the parent trace with no context header —
and tracing never touches served bytes (scenario fingerprints are
asserted identical with it on or off).  Export from the CLI::

    repro-experiments serve --trace-out trace.json      # Perfetto-loadable
    repro-experiments scenario chaos-drift --trace-out spans.jsonl

Enabled-tracing overhead is gated at ≤5% by the ``serve_traced`` kernel in
``benchmarks/BENCH_hotpaths.json``; ``examples/tracing_demo.py`` is the
narrated walkthrough.

``repro-experiments serve`` (see :mod:`repro.experiments.cli`) drives the
whole stack end to end (``--http`` adds a loopback front-door round-trip),
and ``examples/serving_throughput.py`` is the narrated version.
Throughput is guarded by the ``serve_sharded_*`` kernels in
``benchmarks/BENCH_hotpaths.json``; recovery overhead by
``serve_sharded_tvae_faulty`` (one injected worker kill per measured run);
front-door dispatch by ``serve_front_door``.
"""

from repro.serve.admission import AdmissionPolicy, AdmissionRejected
from repro.serve.api import (
    PRIORITY_CLASSES,
    PriorityClass,
    RequestSpec,
    priority_weight,
    table_fingerprint,
)
from repro.serve.faults import Fault, FaultPlan, InjectedFault
from repro.serve.http import FrontDoor, FrontDoorTicket
from repro.serve.registry import ModelRegistry
from repro.serve.service import (
    SampleRequest,
    SamplingService,
    ServiceOverloaded,
    ServiceStats,
)
from repro.serve.sharded import ChunkError, ChunkPolicy, ShardedSampler

__all__ = [
    "AdmissionPolicy",
    "AdmissionRejected",
    "ChunkError",
    "ChunkPolicy",
    "Fault",
    "FaultPlan",
    "FrontDoor",
    "FrontDoorTicket",
    "InjectedFault",
    "ModelRegistry",
    "PRIORITY_CLASSES",
    "PriorityClass",
    "RequestSpec",
    "SampleRequest",
    "SamplingService",
    "ServiceOverloaded",
    "ServiceStats",
    "ShardedSampler",
    "priority_weight",
    "table_fingerprint",
]
