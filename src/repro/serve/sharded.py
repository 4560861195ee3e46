"""The sharded sampling engine: ``sample_batches`` chunks across a process pool.

The sharding contract
---------------------
:meth:`~repro.models.base.Surrogate.sample_batches` made chunks
embarrassingly parallel *by construction*: chunk ``i`` of a request draws
from the ``i``-th :class:`numpy.random.SeedSequence` child of the request
seed, so its bytes depend only on ``(model, seed, chunk_size, i)`` — never
on which process generates it, in what order, or how many sibling workers
exist.  :class:`ShardedSampler` exploits exactly that: it fans the chunks of
a request out across a persistent pool of worker processes (each holding a
deserialized snapshot of the fitted model with warmed serving caches) and
reassembles the chunks in index order.  Both sides take their chunks from
the one :func:`~repro.models.base.chunk_plan`, so the output is

* byte-identical to ``Table.concat(list(model.sample_batches(n, chunk_size,
  seed=seed, sampling_mode=mode)))`` by construction, and
* byte-identical across **any** worker count, including the in-process
  ``workers=1`` path — proven for all five surrogates in both sampling
  modes by ``tests/test_serve_sharded.py``.

Workers are spawned once (:meth:`ShardedSampler.start`) and stay hot:
steady-state requests ship only ``(rows, seed-sequence, mode)`` descriptors
and receive chunk tables back.  Chunk submission is windowed, so a
million-row streaming request keeps at most a few chunks in flight and peak
parent memory stays bounded exactly as in the single-process streaming API.

One chunk path
--------------
Every chunk runs through one interface: a chunk run's ``submit(index,
size, child, mode)`` returns a handle with ``result()`` and ``cancel()``.
The handle is either a pooled one (deadline, retries, hedging per
:class:`ChunkPolicy`, resubmission after a worker crash) or a lazy
in-process one that makes the workers' exact ``model.sample`` call when its
result is asked for.  In-process handles never inject faults, wrap a
failure in :class:`ChunkError` and record the same ``chunk[i]``/
``worker_compute`` spans a pooled chunk records.
:meth:`ShardedSampler.sample_batches` runs in-process with ``workers=1`` or
a one-chunk request; :meth:`ShardedSampler.chunk_run` (the service's entry)
runs in-process with ``workers=1`` or once the pool collapsed.

The fault-tolerance contract
----------------------------
The same seed contract that makes chunks parallel makes them *re-executable*:
a chunk run again — on another worker, after a crash, or as a hedged
duplicate — regenerates **identical bytes**.  Recovery is therefore provable
equality, not a statistical claim, and the engine leans on it at three
levels:

* **Worker death** costs a pool rebuild and a resubmission, and nothing
  else.  The :class:`~repro.utils.parallel.WorkerPool` only rebuilds: once
  per crashed generation, re-running the snapshot/warm-cache initializer.
  The chunk run is the one layer that resubmits: on the first attempt it
  finds lost to a crash it has the pool rebuilt, then resubmits every lost
  attempt of every chunk it has in flight at once, so the rebuilt pool
  gets the whole backlog.  A crash is not charged to a chunk's retry
  budget, and the resubmitted chunks are byte-identical by the seed
  contract.
* **Per-chunk resilience** is governed by a :class:`ChunkPolicy`: each chunk
  attempt carries an optional deadline (``timeout``); a timed-out or failed
  attempt is resubmitted with exponential backoff up to ``max_retries``
  times; and with ``hedge_multiplier`` set, a chunk whose in-flight time
  exceeds that multiple of the run's median completed-chunk latency is
  *hedged* — a duplicate is submitted and the first successful result wins
  (when both finish, their tables are asserted equal).  A handle waits for
  all of this in one event-driven loop: it blocks until an attempt
  finishes, the deadline passes or the hedge trigger fires.
* **Failure context**: a chunk that exhausts its budget raises
  :class:`ChunkError` naming the chunk index and size (chaining the last
  underlying error), after the remaining in-flight chunks of the request
  are cancelled — no abandoned siblings.  Pool-level collapse (the
  restart budget itself exhausted) surfaces as
  :class:`~repro.utils.parallel.WorkerPoolBroken`, the signal the service
  layer uses to degrade to in-process generation.

Deterministic chaos tests drive all of these paths through the
:mod:`repro.serve.faults` plan installed via ``fault_plan=``; see
``tests/test_serve_faults.py`` for the byte-equality proofs.

The chunk return path
---------------------
A finished chunk is the worker's return value: the pool pickles the chunk
:class:`~repro.tabular.table.Table` back to the parent.  A sampled chunk
pickles to its ``float64`` numerical and ``int32`` categorical-code
buffers plus a small schema-and-vocabulary header (no decoded strings),
and a timed-out attempt, a hedge loser, a cancel or a worker crash leaves
nothing behind to clean up.
"""

from __future__ import annotations

import bisect
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Optional, Union

import numpy as np

from repro.models.base import Surrogate, check_sample_request, chunk_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    TracedChunk,
    Tracer,
    chunk_span_id,
    request_span_id,
    trace_id_from_child,
)
from repro.serve import faults as fault_injection
from repro.serve.faults import FaultPlan
from repro.tabular.table import Table
from repro.utils.logging import get_logger
from repro.utils.parallel import WorkerPool, available_workers
from repro.utils.rng import SeedLike

__all__ = ["ChunkError", "ChunkPolicy", "ShardedSampler"]

_LOG = get_logger(__name__)

#: The worker-process model snapshot, set once by :func:`_init_worker`.
_WORKER_MODEL: Optional[Surrogate] = None

#: Whether workers should record ``worker_compute`` spans and piggyback them
#: on the task return path (see :mod:`repro.obs.tracing`).
_WORKER_TRACING: bool = False


def _init_worker(
    snapshot: bytes,
    chunk_rows: int,
    fault_plan: Optional[FaultPlan] = None,
    tracing: bool = False,
) -> None:
    """One-time worker setup: deserialize the model, warm its serving caches.

    Re-run by :meth:`~repro.utils.parallel.WorkerPool.recover` after every
    rebuild, so the workers that take over a crashed generation's chunks
    are exactly as warm as freshly started ones.  When a fault plan
    is provided (chaos tests, ``--fault-plan`` runs) it is installed here —
    the plan's exactly-once token latch lives on disk, so a rebuilt worker
    does not re-inject already-claimed faults.  With ``tracing`` enabled the
    worker wraps each task result in a
    :class:`~repro.obs.tracing.TracedChunk` carrying its compute span home.
    """
    global _WORKER_MODEL, _WORKER_TRACING
    model = Surrogate.from_snapshot(snapshot)
    model.warm_serving_caches(chunk_rows)
    _WORKER_MODEL = model
    _WORKER_TRACING = bool(tracing)
    fault_injection.install(fault_plan)


def _sample_chunk(size: int, child: np.random.SeedSequence, sampling_mode: str):
    """Generate one chunk in the worker — the same call the parent would make.

    The chunk's index is recoverable from the seed contract itself (it is
    the last element of the child's spawn key), which is what lets the fault
    harness target "chunk i" — and the tracing layer derive the parent's
    trace/span IDs — without widening the task descriptor.

    Returns the chunk :class:`~repro.tabular.table.Table`; with tracing
    enabled it travels wrapped in a :class:`~repro.obs.tracing.TracedChunk`
    with identical bytes.
    """
    assert _WORKER_MODEL is not None, "worker used before initialization"
    spawn_key = getattr(child, "spawn_key", ())
    index = int(spawn_key[-1]) if spawn_key else 0
    fault_injection.maybe_inject(index)
    tracer = Tracer() if _WORKER_TRACING else None
    table = _compute_chunk(_WORKER_MODEL, index, size, child, sampling_mode, tracer)
    return table if tracer is None else TracedChunk(table, tracer.spans())


def _compute_chunk(
    model: Surrogate,
    index: int,
    size: int,
    child: np.random.SeedSequence,
    sampling_mode: str,
    tracer: Optional[Tracer],
) -> Table:
    """The one generation call behind every chunk, pooled or in-process.

    Records the chunk's ``worker_compute`` span when ``tracer`` is set.
    """
    started = time.perf_counter()
    table = model.sample(size, seed=np.random.default_rng(child), sampling_mode=sampling_mode)
    if tracer is not None:
        trace_id = trace_id_from_child(child)
        tracer.add(
            "worker_compute",
            trace_id,
            index,
            parent=chunk_span_id(trace_id, index),
            start=started,
            attrs={"chunk": index, "rows": size},
        )
    return table


class ChunkError(RuntimeError):
    """A chunk failed beyond its retry budget; carries the chunk's identity."""

    def __init__(self, index: int, size: int, message: str) -> None:
        super().__init__(f"chunk {index} ({size} rows) {message}")
        self.index = index
        self.size = size


@dataclass(frozen=True)
class ChunkPolicy:
    """Per-chunk resilience knobs for the sharded engine.

    timeout:
        Per-attempt deadline in seconds: every attempt starts its own clock,
        including one resubmitted after a worker crash.  An attempt that
        exceeds it is abandoned (the worker keeps running; its late result
        is discarded) and the chunk is resubmitted.  ``None`` disables
        deadlines.
    max_retries:
        Resubmissions allowed per chunk for task failures and timeouts
        combined.  A worker crash is not charged: the chunk run resubmits
        what a crash took down, bounded by the pool's restart budget
        (``max_pool_restarts``), not the chunk's.
    backoff:
        Base of the exponential backoff slept before retry ``k``:
        ``backoff * 2**(k-1)`` seconds.
    hedge_multiplier:
        Straggler hedging: once a chunk's in-flight time exceeds
        ``hedge_multiplier * median(completed chunk latencies)`` a duplicate
        attempt is submitted and the first success wins (both finishing is
        asserted byte-equal).  ``None`` disables hedging.
    min_hedge_latency:
        Floor (seconds) under which hedging never triggers, so micro-chunks
        do not hedge on scheduling noise.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    hedge_multiplier: Optional[float] = None
    min_hedge_latency: float = 0.05

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be positive or None, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be non-negative, got {self.max_retries}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be non-negative, got {self.backoff}")
        if self.hedge_multiplier is not None and self.hedge_multiplier <= 0:
            raise ValueError(
                f"hedge_multiplier must be positive or None, got {self.hedge_multiplier}"
            )


class _Attempt(NamedTuple):
    """One pooled execution of a chunk: the executor's future, the pool
    generation it went to, and its start (the attempt's deadline clock)."""

    future: Future
    generation: int
    started: float


#: :meth:`_ChunkRun.status` of an attempt.
_PENDING, _OK, _FAILED, _LOST = "pending", "ok", "failed", "lost"


class _ChunkRun:
    """The only way chunks run: one request's pass, or the service
    dispatcher's pipeline for as long as requests are in flight.

    :meth:`submit` returns a pooled :class:`_ChunkHandle`, or a lazy
    :class:`_LocalChunk` when the run is ``in_process``.  The run is the one
    layer that resubmits after a worker crash: it keeps its live pooled
    handles, and :meth:`recover` resubmits every attempt the crash took
    down, of all of them at once.  Tracks the latencies of the last
    :attr:`LATENCY_WINDOW` completed chunks so hedging can compare each
    in-flight chunk against the run's median; a run that lives through a
    long busy period keeps a bounded sample.  A run is consumed by a single
    thread (the request iterator or the service dispatcher); the
    sampler-level counters it updates are lock-protected.
    """

    #: Completed-chunk latencies kept for the hedging median.
    LATENCY_WINDOW = 256

    def __init__(self, sampler: "ShardedSampler", *, in_process: bool) -> None:
        self.sampler = sampler
        self.in_process = in_process
        self.policy = sampler.chunk_policy
        #: The pool every attempt of this run goes to (started here).
        self.pool: Optional[WorkerPool] = None if in_process else sampler.start()._pool
        #: Pooled handles neither resolved nor cancelled, in submission order.
        self.live: Dict["_ChunkHandle", None] = {}
        #: The sample in completion order, and kept sorted so the median is
        #: one lookup.
        self._recent: deque = deque()
        self._latencies: List[float] = []

    def submit(
        self, index: int, size: int, child: np.random.SeedSequence, sampling_mode: str
    ) -> Union["_ChunkHandle", "_LocalChunk"]:
        handle = _LocalChunk if self.in_process else _ChunkHandle
        return handle(self, index, size, child, sampling_mode)

    def status(self, attempt: _Attempt) -> str:
        """``_PENDING``, ``_OK``, ``_FAILED`` (the task's own exception) or
        ``_LOST``: failed with :class:`BrokenExecutor`, cancelled by an
        executor shutdown, or unfinished on a generation that is dead."""
        future = attempt.future
        if not future.done():
            return _LOST if attempt.generation != self.pool.generation else _PENDING
        if future.cancelled() or isinstance(future.exception(), BrokenExecutor):
            return _LOST
        return _FAILED if future.exception() is not None else _OK

    def recover(self, generation: int) -> None:
        """Have the pool rebuilt after a crash on ``generation``, then
        resubmit every lost attempt of every live handle.

        Raises :class:`~repro.utils.parallel.WorkerPoolBroken` once the
        pool's restart budget is exhausted.
        """
        self.pool.recover(generation)
        for handle in list(self.live):
            handle.resubmit_lost()

    def record_latency(self, seconds: float) -> None:
        if len(self._recent) == self.LATENCY_WINDOW:
            del self._latencies[bisect.bisect_left(self._latencies, self._recent.popleft())]
        self._recent.append(seconds)
        bisect.insort(self._latencies, seconds)

    def median_latency(self) -> Optional[float]:
        if not self._latencies:
            return None
        return self._latencies[len(self._latencies) // 2]


class _ChunkHandle:
    """One pooled chunk: deadline, retries, hedging and crash resubmission.

    ``_attempts[0]`` is the primary attempt and ``_attempts[1]``, when
    present, its hedged duplicate.
    """

    def __init__(
        self,
        run: _ChunkRun,
        index: int,
        size: int,
        child: np.random.SeedSequence,
        sampling_mode: str,
    ) -> None:
        self._run = run
        self.index = index
        self.size = size
        self._child = child
        self._mode = sampling_mode
        self._failures = 0  # failures + timeouts charged against max_retries
        self._tracer = run.sampler.tracer
        if self._tracer is not None:
            self._trace_id = trace_id_from_child(child)
            self._chunk_span = chunk_span_id(self._trace_id, index)
        self._created = time.perf_counter()
        self._attempts: List[_Attempt] = [self._launch()]
        self._consumed = False
        run.live[self] = None

    def _launch(self) -> _Attempt:
        future, generation = self._run.pool.submit(
            _sample_chunk, self.size, self._child, self._mode
        )
        self._run.sampler._track_pending(1)
        return _Attempt(future, generation, time.perf_counter())

    def _drop(self, attempt: _Attempt) -> None:
        """Consume or abandon ``attempt`` (a running one finishes unread)."""
        attempt.future.cancel()
        self._run.sampler._track_pending(-1)

    def _decode(self, attempt: _Attempt) -> Table:
        return self._run.sampler.decode_chunk(attempt.future.result())

    def cancel(self) -> None:
        """Abandon the chunk's attempts (a no-op once it resolved)."""
        if self._consumed:
            return
        self._consumed = True
        del self._run.live[self]
        for attempt in self._attempts:
            self._drop(attempt)
        self._attempts = []

    def resubmit_lost(self) -> None:
        """Replace every attempt a crash took down with a fresh one, which
        starts its own deadline clock.  Not charged to ``max_retries``."""
        for position, attempt in enumerate(self._attempts):
            if self._run.status(attempt) is _LOST:
                self._attempts[position] = self._launch()
                self._drop(attempt)

    # -- the resolution loop -----------------------------------------------------
    def result(self) -> Table:
        """Block until the chunk resolves; retries/hedges per the policy.

        One event-driven loop: settle the attempts that finished, enforce
        the deadline and the hedge trigger, then wait until an attempt
        finishes, the deadline passes or the hedge trigger fires (with
        neither set, the wait has no timeout).  Raises :class:`ChunkError`
        (with the last underlying error chained) when the retry budget is
        exhausted, or lets :class:`~repro.utils.parallel.WorkerPoolBroken`
        pass through unwrapped — that is a pool-level verdict, not a
        chunk-level one.  Either way the chunk's attempts are abandoned.
        """
        try:
            while True:
                table = self._settle()
                if table is not None:
                    return table
                timeout = self._enforce_clock()
                wait([a.future for a in self._attempts], timeout, FIRST_COMPLETED)
        except BaseException:
            self.cancel()
            raise

    def _settle(self) -> Optional[Table]:
        """Consume the attempts that finished; the table once one succeeded.

        The first success wins (a hedge that also succeeded must match it).
        An attempt lost to a crash has the run recover, which resubmits it.
        A failed hedge is dropped; a failed primary hands over to its hedge,
        or is charged against the retry budget and resubmitted.
        """
        attempts = self._attempts
        states = [self._run.status(attempt) for attempt in attempts]
        if _OK in states:
            winner = attempts[states.index(_OK)]
            table = self._decode(winner)
            if states.count(_OK) == 2:
                assert self._decode(attempts[1]) == table, (
                    f"hedged chunk {self.index} diverged from its primary — "
                    "the seed contract was violated"
                )
            return self._finish(table, winner.started, hedged_win=winner is not attempts[0])
        if _LOST in states:
            self._run.recover(attempts[states.index(_LOST)].generation)
        elif _FAILED in states:
            self._attempts = [a for a, state in zip(attempts, states) if state is not _FAILED]
            for attempt, state in zip(attempts, states):
                if state is _FAILED:
                    self._drop(attempt)
            if not self._attempts:
                self._charge(attempts[0].future.exception(), attempts[0].started)
        return None

    def _enforce_clock(self) -> Optional[float]:
        """Apply the primary's deadline and the hedge trigger; returns the
        seconds until the next of them, or ``None`` when neither is set."""
        policy = self._run.policy
        primary = self._attempts[0]
        now = time.perf_counter()
        if policy.timeout is not None and now - primary.started >= policy.timeout:
            self._drop(primary)
            del self._attempts[0]  # a hedge, if racing, inherits the attempt
            if not self._attempts:
                self._run.sampler._count(timeouts=1)
                _LOG.warning(
                    "chunk %d (%d rows) attempt %d timed out after %.3fs deadline; abandoning",
                    self.index, self.size, self._failures + 1, policy.timeout,
                )
                self._charge(
                    TimeoutError(f"attempt exceeded the {policy.timeout}s chunk deadline"),
                    primary.started,
                )
            primary = self._attempts[0]
        trigger = self._hedge_trigger() if len(self._attempts) == 1 else None
        if trigger is not None and now - primary.started >= trigger:
            self._attempts.append(self._launch())
            self._run.sampler._count(hedges=1)
            _LOG.info(
                "chunk %d (%d rows) straggling %.3fs > %.3fs trigger; hedging",
                self.index, self.size, now - primary.started, trigger,
            )
            trigger = None
        marks = [primary.started + span for span in (policy.timeout, trigger) if span is not None]
        return max(0.0, min(marks) - time.perf_counter()) if marks else None

    def _hedge_trigger(self) -> Optional[float]:
        """In-flight seconds after which the primary is hedged (``None``:
        hedging is off, or no chunk of the run has completed yet)."""
        policy = self._run.policy
        median = self._run.median_latency()
        if policy.hedge_multiplier is None or median is None:
            return None
        return max(policy.min_hedge_latency, policy.hedge_multiplier * median)

    def _record_attempt_span(
        self, attempt: int, started: float, *, error: Optional[str] = None
    ) -> None:
        if self._tracer is None:
            return
        attrs = {"chunk": self.index, "rows": self.size}
        if error is not None:
            attrs["error"] = error
        self._tracer.add(
            f"attempt[{attempt}]",
            self._trace_id,
            self.index,
            attempt,
            parent=self._chunk_span,
            start=started,
            attrs=attrs,
        )

    def _charge(self, exc: BaseException, started: float) -> None:
        """Charge a failure against the retry budget and resubmit (or raise)."""
        policy = self._run.policy
        self._failures += 1
        self._record_attempt_span(self._failures, started, error=str(exc))
        if self._failures > policy.max_retries:
            _LOG.error(
                "chunk %d (%d rows) exhausted its retry budget after attempt %d: %s",
                self.index, self.size, self._failures, exc,
            )
            raise ChunkError(
                self.index, self.size,
                f"failed after {policy.max_retries} retr"
                f"{'y' if policy.max_retries == 1 else 'ies'}: {exc}",
            ) from exc
        self._run.sampler._count(retries=1)
        _LOG.warning(
            "chunk %d (%d rows) attempt %d failed: %s; retrying (%d/%d)",
            self.index, self.size, self._failures, exc,
            self._failures, policy.max_retries,
        )
        if policy.backoff > 0:
            time.sleep(policy.backoff * (2 ** (self._failures - 1)))
        self._attempts = [self._launch()]

    def _finish(self, table: Table, started_at: float, *, hedged_win: bool) -> Table:
        self.cancel()  # consumes the winner, abandons a losing duplicate
        self._run.record_latency(time.perf_counter() - started_at)
        if hedged_win:
            self._run.sampler._count(hedge_wins=1)
        if self._tracer is not None:
            self._record_attempt_span(self._failures + 1, started_at)
            self._tracer.add(
                f"chunk[{self.index}]",
                self._trace_id,
                self.index,
                parent=request_span_id(self._trace_id),
                start=self._created,
                attrs={
                    "chunk": self.index,
                    "rows": self.size,
                    "retries": self._failures,
                    "hedged_win": hedged_win,
                },
            )
        return table


class _LocalChunk:
    """One chunk generated in this process when its result is asked for.

    Lazy, so a run hands out a whole request's handles up front exactly as
    the pooled path does.  Makes the workers' exact call, minus fault
    injection (the harness targets pool workers only).
    """

    def __init__(
        self,
        run: _ChunkRun,
        index: int,
        size: int,
        child: np.random.SeedSequence,
        sampling_mode: str,
    ) -> None:
        self._sampler = run.sampler
        self.index = index
        self.size = size
        self._child = child
        self._mode = sampling_mode

    def cancel(self) -> None:
        """Nothing to abandon: no work starts before :meth:`result`."""

    def result(self) -> Table:
        """Generate the chunk; a failure raises :class:`ChunkError`."""
        tracer = self._sampler.tracer
        started = time.perf_counter()
        try:
            table = _compute_chunk(
                self._sampler.model, self.index, self.size, self._child, self._mode, tracer
            )
        except Exception as exc:
            raise ChunkError(self.index, self.size, f"failed: {exc}") from exc
        if tracer is not None:
            trace_id = trace_id_from_child(self._child)
            tracer.add(
                f"chunk[{self.index}]",
                trace_id,
                self.index,
                parent=request_span_id(trace_id),
                start=started,
                attrs={"chunk": self.index, "rows": self.size, "local": True},
            )
        return table


class ShardedSampler:
    """Fan a sampling request's chunks across a persistent process pool.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.base.Surrogate`.  The pool snapshots
        it when it starts; refit the model → :meth:`restart` the sampler.
    workers:
        Worker process count.  ``None`` resolves to the visible CPU budget
        (:func:`repro.utils.parallel.available_workers`, honouring
        ``REPRO_WORKERS``).  An explicit count is honoured exactly — the
        worker-count-invariance tests rely on being able to demand 4 workers
        on a one-core box.  Each pool worker runs ``max(1, budget //
        workers)`` BLAS threads (never more than the parent), re-applied on
        every pool rebuild and :meth:`resize`; the parent keeps all its
        threads.  ``1`` runs in-process with no pool at all, on every core.
    chunk_size:
        Rows per chunk (the sharding grain and the streaming memory bound).
    chunk_policy:
        Per-chunk deadline / retry / hedging policy (:class:`ChunkPolicy`);
        the default retries failures twice and disables deadlines/hedging.
    fault_plan:
        A :class:`~repro.serve.faults.FaultPlan` installed in every worker —
        deterministic chaos for tests, benchmarks and ``--fault-plan`` runs.
    max_pool_restarts:
        Pool rebuilds after worker crashes tolerated before the pool
        declares itself broken (:class:`~repro.utils.parallel.WorkerPoolBroken`).
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` the sampler's fault
        counters and pool gauges are registered in.  The owning service
        passes its registry down so the whole stack shares one; standalone
        samplers create their own.
    tracer:
        An optional :class:`~repro.obs.tracing.Tracer`.  When set, chunk
        handles record ``chunk[i]``/``attempt[j]`` spans (in-process ones
        ``chunk[i]``/``worker_compute``) and workers are started with
        tracing enabled (their ``worker_compute`` spans ride home on the
        task results).  ``None`` (the default) is a strict no-op on every
        path — bytes are identical either way.

    Each pooled chunk is the worker's return value, pickled back by the
    pool.  The sampler is a context manager; :meth:`close` shuts the pool
    down.
    """

    DEFAULT_CHUNK_SIZE = Surrogate.DEFAULT_SERVING_CHUNK

    def __init__(
        self,
        model: Surrogate,
        *,
        workers: Optional[int] = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        chunk_policy: Optional[ChunkPolicy] = None,
        fault_plan: Optional[FaultPlan] = None,
        max_pool_restarts: int = 5,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        self._model = model
        self.workers = available_workers(None) if workers is None else max(1, int(workers))
        self.chunk_size = int(chunk_size)
        self.chunk_policy = chunk_policy if chunk_policy is not None else ChunkPolicy()
        self.fault_plan = fault_plan
        self.max_pool_restarts = int(max_pool_restarts)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self._pool: Optional[WorkerPool] = None
        self._pending_tasks = 0
        self._pending_lock = threading.Lock()
        counter = self.metrics.counter
        self._fault_counters = {
            "retries": counter(
                "repro_serve_chunk_retries_total",
                "Chunk resubmissions after task failures.",
            ),
            "timeouts": counter(
                "repro_serve_chunk_timeouts_total",
                "Chunk attempts abandoned at their per-attempt deadline.",
            ),
            "hedges": counter(
                "repro_serve_chunk_hedges_total",
                "Hedged duplicates submitted for straggler chunks.",
            ),
            "hedge_wins": counter(
                "repro_serve_chunk_hedge_wins_total",
                "Hedged duplicates that finished before their primary.",
            ),
        }
        self._pool_restarts_gauge = self.metrics.gauge(
            "repro_serve_pool_restarts", "Supervised executor rebuilds, all pool generations."
        )
        #: Restarts of pools already torn down (restart / hot swap) — keeps
        #: the cumulative fault counters monotonic across pool generations.
        self._retired_restarts = 0

    # -- lifecycle ---------------------------------------------------------------
    @property
    def model(self) -> Surrogate:
        """The surrogate being served (the parent-process instance)."""
        return self._model

    @property
    def is_running(self) -> bool:
        return self._pool is not None

    @property
    def pool_broken(self) -> bool:
        """True when the pool gave up on crash recovery (the degraded-mode
        signal)."""
        return self._pool is not None and self._pool.is_broken

    @property
    def pool_pending_tasks(self) -> int:
        """Pooled chunk attempts submitted and not yet consumed or abandoned
        (0 pool-free); safe to read from any thread."""
        return self._pending_tasks

    @property
    def pool_restarts(self) -> int:
        """Supervised executor rebuilds across every pool generation.

        Reading it also sets the ``repro_serve_pool_restarts`` gauge.
        """
        restarts = self._retired_restarts + (
            self._pool.restarts if self._pool is not None else 0
        )
        self._pool_restarts_gauge.set(restarts)
        return restarts

    def start(self) -> "ShardedSampler":
        """Snapshot the model and spawn + warm the worker pool (idempotent).

        With ``workers=1`` there is nothing to spawn: the in-process path is
        the pool-free degenerate case of the same chunk plan.
        """
        if self.workers > 1 and self._pool is None:
            self._pool = WorkerPool(
                self.workers,
                initializer=_init_worker,
                initargs=(
                    self._model.serving_snapshot(),
                    self.chunk_size,
                    self.fault_plan,
                    self.tracer is not None,
                ),
                max_restarts=self.max_pool_restarts,
            ).start()
        return self

    def restart(self) -> "ShardedSampler":
        """Tear the pool down and re-snapshot the model (e.g. after a refit)."""
        self.close()
        return self.start()

    def resize(self, workers: int) -> "ShardedSampler":
        """Change the worker count at a safe point (no chunks in flight).

        The autoscaling hook: the service dispatcher stops refilling its
        pipeline and calls this once every in-flight request has been
        delivered.  Byte-safe by the sharding contract — chunk streams
        are worker-count-invariant, so a resized pool serves identical
        bytes.  The current pool (if any) is torn down and a fresh one is
        started at the new count (``1`` runs pool-free); the sampler is
        started afterwards either way.
        """
        workers = max(1, int(workers))
        if workers == self.workers:
            return self
        self.close()
        self.workers = workers
        return self.start()

    def swap_model(self, model: Surrogate) -> "ShardedSampler":
        """Replace the served model with a freshly fitted one (hot swap).

        Tears the pool down, installs ``model``, and — when a pool was
        running — starts a new one from the new model's snapshot.  Callers
        must not have chunks in flight (the service dispatcher swaps only
        once its pipeline has drained, which guarantees exactly that).  A
        broken pool is also cleared here: a swap is a rebuild, so the
        degraded-mode flag resets with it.
        """
        if not model.is_fitted:
            raise RuntimeError(
                f"{type(model).__name__} is not fitted; fit() it before serving"
            )
        was_running = self._pool is not None
        self.close()
        self._model = model
        if was_running:
            self.start()
        return self

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            self._retired_restarts += pool.restarts
            pool.close()

    def __enter__(self) -> "ShardedSampler":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def decode_chunk(self, result) -> Table:
        """Materialise a worker result: the chunk table itself.

        Traced results (:class:`~repro.obs.tracing.TracedChunk`) are
        unwrapped: their worker-side spans fold into the parent tracer and
        the table proceeds exactly as if tracing were off — which is why
        enabling tracing cannot change served bytes.
        """
        if not isinstance(result, TracedChunk):
            return result
        if self.tracer is not None:
            self.tracer.extend(result.spans)
        return result.payload

    # -- fault accounting --------------------------------------------------------
    def _count(self, **deltas: int) -> None:
        for key, delta in deltas.items():
            self._fault_counters[key].inc(delta)

    def _track_pending(self, delta: int) -> None:
        with self._pending_lock:
            self._pending_tasks += delta

    def assemble(
        self, chunks, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Table:
        """One table from a request's chunk tables (0 / 1 / many)."""
        chunks = list(chunks)
        if not chunks:
            return self._model.sample(0, seed=seed, sampling_mode=sampling_mode)
        if len(chunks) == 1:
            return chunks[0]
        return Table.concat(chunks)

    # -- sampling ----------------------------------------------------------------
    def sample(
        self, n: int, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Table:
        """Draw ``n`` rows as one table, sharded across the pool.

        Takes the model layer's form and its bit-reproducible ``"exact"``
        default; a :class:`~repro.serve.api.RequestSpec` belongs to the
        request layer and raises ``TypeError`` here.  Byte-identical to
        ``Table.concat(list(model.sample_batches(n, chunk_size, seed=seed,
        sampling_mode=sampling_mode)))`` for every worker count — and, by
        the fault-tolerance contract above, for every recovered fault.
        """
        return self.assemble(
            self.sample_batches(n, seed=seed, sampling_mode=sampling_mode),
            seed=seed,
            sampling_mode=sampling_mode,
        )

    def sample_batches(
        self, n: int, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Iterator[Table]:
        """Stream ``n`` rows as chunk tables, generated by the pool in parallel.

        Chunks are yielded in index order.  Submission is windowed (a small
        multiple of the worker count), so the pool stays saturated while the
        parent holds only a bounded number of undelivered chunks.  A chunk
        that exhausts its resilience budget raises :class:`ChunkError` with
        its index/size after the window's in-flight siblings are cancelled.
        With ``workers=1`` or a one-chunk request the chunks run in-process;
        pool collapse raises :class:`~repro.utils.parallel.WorkerPoolBroken`.
        """
        sizes, children = chunk_plan(
            check_sample_request(n, sampling_mode), self.chunk_size, seed
        )
        run = _ChunkRun(self, in_process=self.workers == 1 or len(sizes) <= 1)
        window = 2 * self.workers

        def _generate() -> Iterator[Table]:
            in_flight: deque = deque()
            try:
                for index, (size, child) in enumerate(zip(sizes, children)):
                    in_flight.append(run.submit(index, size, child, sampling_mode))
                    if len(in_flight) >= window:
                        yield in_flight.popleft().result()
                while in_flight:
                    yield in_flight.popleft().result()
            finally:
                # Error or early consumer exit: no abandoned siblings.
                for handle in in_flight:
                    handle.cancel()

        return _generate()

    def chunk_run(self) -> _ChunkRun:
        """A chunk-submission context for the service's dispatcher pipeline.

        ``run.submit(index, size, child, mode)`` returns a handle whose
        ``result()`` yields the chunk table, so the chunks of every request
        in flight go through one run: they interleave in the pool, and
        hedging measures each chunk against the ones completed before it.
        The run is in-process with ``workers=1`` or once the pool collapsed
        (:attr:`pool_broken`); otherwise its handles apply the sampler's
        :class:`ChunkPolicy` (deadline, retries, hedging) on the pool.
        """
        return _ChunkRun(self, in_process=self.workers == 1 or self.pool_broken)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "running" if self.is_running else "idle"
        return (
            f"ShardedSampler({type(self._model).__name__}, workers={self.workers}, "
            f"chunk_size={self.chunk_size}, {state})"
        )
