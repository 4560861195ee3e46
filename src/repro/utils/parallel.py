"""Process-parallel plumbing: worker-count resolution, a one-shot parallel
map, and a supervised persistent worker pool for serving.

Heavy experiment sweeps (training several surrogate models, benchmarking many
scheduler policies) are embarrassingly parallel at the task level.  This
module follows the HPC guidance of keeping each worker's payload a plain
picklable function of plain arguments, and degrades gracefully to a serial
loop when only one worker is requested or when running inside an environment
where forking is undesirable.

Worker-count resolution (:func:`available_workers`) is container-aware: it
prefers the scheduling affinity mask (``os.sched_getaffinity``) over
``os.cpu_count`` — inside a cgroup-limited container or a pinned CI runner
the former reports the CPUs the process may actually run on, while the
latter reports every core of the host and would oversubscribe the pool.  The
``REPRO_WORKERS`` environment variable overrides the detected budget
entirely (e.g. CI forces ``REPRO_WORKERS=2`` so the multi-process serving
path is exercised even on single-core runners).

:class:`WorkerPool` is the serving-side companion: a persistent process pool
whose workers run a one-time initializer (deserialize a model snapshot, warm
its packed caches) and then stay hot across requests, so steady-state
dispatch pays per-task IPC only.

Core budget
-----------
Processes and BLAS threads share one budget, ``available_workers(None)``.
OpenBLAS starts one thread per core in every process, and a forked worker
inherits that count, so an N-worker pool would run N × cores BLAS threads
on ``cores`` CPUs and lose more to contention than it gains from sharding.
Every worker of an N-worker pool (:class:`WorkerPool` and
:func:`parallel_map` alike) therefore caps each OpenBLAS mapped into it at
``max(1, budget // N)`` threads before the caller's initializer runs, and
never raises a count: an operator's ``OPENBLAS_NUM_THREADS`` below the cap
still wins.  The worker also exports the cap as ``OPENBLAS_NUM_THREADS``,
so an OpenBLAS it loads later (scipy's, or any under spawn/forkserver)
starts capped.  The parent process keeps all its threads: it runs the
Table-I experiments, ``workers=1`` serving and degraded mode.  Pool rebuilds
re-run the cap with the initializer.  The cap is a ``ctypes`` call into the
set-threads symbol of every mapped OpenBLAS (:func:`openblas_threads` reads
the counts the same way) and does nothing where no OpenBLAS or ``/proc``
exists.

Supervision
-----------
A plain :class:`~concurrent.futures.ProcessPoolExecutor` is brittle: one
worker dying (OOM kill, segfault, ``os._exit``) marks the whole executor
broken, fails **every** queued future with
:class:`~concurrent.futures.process.BrokenProcessPool`, and leaves the
executor unusable.  :class:`WorkerPool` supervises instead of propagating:

* :meth:`WorkerPool.submit` returns a :class:`SupervisedFuture` that
  remembers its task descriptor ``(fn, args, kwargs)``;
* the first waiter to observe a :class:`BrokenExecutor` triggers
  :meth:`recovery <WorkerPool._recover>`: the dead executor is discarded, a
  fresh one is spawned, the per-worker initializer re-runs (warm-up included,
  exactly like :meth:`WorkerPool.start`), and **every unresolved supervised
  future is resubmitted** — tasks queued behind the crash are re-executed,
  not lost;
* each successful recovery increments :attr:`WorkerPool.restarts`; once
  :attr:`WorkerPool.max_restarts` is exceeded the pool declares itself
  permanently broken (:attr:`WorkerPool.is_broken`) and every pending or
  future operation raises :class:`WorkerPoolBroken`, which callers (the
  sampling service) use to fall back to in-process execution.

Resubmission is only byte-safe when tasks are deterministic pure functions
of their arguments — which the serving layer's chunk tasks are by the
sharding seed contract (chunk ``i`` draws from the ``i``-th ``SeedSequence``
child, so a re-executed chunk regenerates identical bytes).  A task that
deterministically kills its worker on *every* execution is bounded by the
restart budget rather than looping forever.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import threading
import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor, wait
from concurrent.futures import TimeoutError as FuturesTimeoutError
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.utils.logging import get_logger

_LOG = get_logger(__name__)

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable overriding the detected CPU budget.
WORKERS_ENV = "REPRO_WORKERS"


def visible_cpus() -> int:
    """CPUs this process may run on: affinity mask first, ``cpu_count`` fallback.

    ``os.sched_getaffinity`` honours cgroup cpusets and CPU pinning, so a
    containerised run sees its real budget instead of the host's core count;
    platforms without it (macOS) fall back to ``os.cpu_count``.
    """
    getaffinity = getattr(os, "sched_getaffinity", None)
    if getaffinity is not None:
        try:
            return max(1, len(getaffinity(0)))
        except OSError:  # pragma: no cover - exotic kernels
            pass
    return os.cpu_count() or 1


def available_workers(requested: Optional[int] = None) -> int:
    """Resolve a worker count: ``requested`` capped by the visible CPU budget.

    The budget is :func:`visible_cpus` unless ``REPRO_WORKERS`` is set, in
    which case the override *is* the budget (uncapped — it is an explicit
    operator decision, e.g. forcing the parallel path on a one-core CI
    runner).  ``requested=None`` (or a non-positive request) returns the
    whole budget.
    """
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            budget = max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV} must be an integer worker count, got {env!r}"
            ) from None
    else:
        budget = visible_cpus()
    if requested is None or requested <= 0:
        return budget
    return max(1, min(requested, budget))


#: The variable OpenBLAS reads its thread count from when it loads.
OPENBLAS_THREADS_ENV = "OPENBLAS_NUM_THREADS"

#: ``(set, get)`` thread-count symbols by OpenBLAS build: numpy's
#: ``libscipy_openblas64_``, scipy's ``libscipy_openblas``, then plain builds.
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_controls() -> Dict[str, Tuple[Callable[[int], None], Callable[[], int]]]:
    """``{path: (set_num_threads, get_num_threads)}`` of every mapped OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return {}
    controls = {}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls[path] = (setter, getter)
                break
    return controls


def openblas_threads() -> Dict[str, int]:
    """Runtime thread count of every OpenBLAS mapped into this process, by path.

    Empty where no OpenBLAS is loaded or ``/proc`` is missing.
    """
    return {path: int(get()) for path, (_set, get) in _openblas_controls().items()}


def _cap_openblas_threads(limit: int) -> None:
    """Lower every mapped OpenBLAS to at most ``limit`` threads, raising none.

    Also exports the cap as ``OPENBLAS_NUM_THREADS`` (unless a lower count is
    already set there) so an OpenBLAS loaded afterwards starts capped.
    """
    preset = os.environ.get(OPENBLAS_THREADS_ENV, "").strip()
    if not (preset.isdigit() and 0 < int(preset) <= limit):
        os.environ[OPENBLAS_THREADS_ENV] = str(limit)
    for set_threads, get_threads in _openblas_controls().values():
        if get_threads() > limit:
            set_threads(limit)


def _init_budgeted_worker(
    blas_threads: int, initializer: Optional[Callable[..., object]], initargs: Tuple
) -> None:
    """Worker entry: take the pool's share of BLAS threads, then initialize."""
    _cap_openblas_threads(blas_threads)
    if initializer is not None:
        initializer(*initargs)


def _budgeted_executor(
    workers: int, initializer: Optional[Callable[..., object]] = None, initargs: Tuple = ()
) -> ProcessPoolExecutor:
    """A ``workers``-process executor inside the core budget (module docstring)."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(),
        initializer=_init_budgeted_worker,
        initargs=(max(1, available_workers(None) // workers), initializer, initargs),
    )


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    workers: Optional[int] = 1,
    chunksize: int = 1,
) -> List[R]:
    """Apply ``func`` to every item, optionally across processes.

    Parameters
    ----------
    func:
        A picklable callable applied to each item.
    items:
        The work list; materialised to preserve ordering of results.
    workers:
        Number of worker processes.  ``1`` (the default) runs serially, which
        is also the safe choice when ``func`` closes over non-picklable state.
        Each worker runs ``budget // workers`` BLAS threads (module
        docstring, *Core budget*).
    chunksize:
        Forwarded to :meth:`ProcessPoolExecutor.map` to amortise IPC overhead
        for large, cheap work lists.
    """
    work = list(items)
    n_workers = available_workers(workers)
    if n_workers == 1 or len(work) <= 1:
        return [func(item) for item in work]
    with _budgeted_executor(n_workers) as pool:
        return list(pool.map(func, work, chunksize=max(1, chunksize)))


def _worker_warmup(hold_seconds: float) -> int:
    """A near-no-op task used to force worker spawn (returns the worker's pid).

    The short hold keeps an already-warm worker busy long enough that the
    next queued warm-up lands on a *different* (possibly still-initializing)
    worker instead of being swallowed by the fast one.
    """
    if hold_seconds > 0:
        time.sleep(hold_seconds)
    return os.getpid()


class WorkerPoolBroken(RuntimeError):
    """The pool exhausted its restart budget (or could not rebuild).

    Raised by every pending :class:`SupervisedFuture` and by any further
    :meth:`WorkerPool.submit` once supervision gives up.  Catching it is the
    signal to degrade to in-process execution (the sampling service does).
    """


class SupervisedFuture:
    """A future whose task survives worker-pool breakage.

    Wraps the executor future of one submitted task together with the task
    descriptor itself, so the owning :class:`WorkerPool` can resubmit the
    task onto a rebuilt executor after a worker crash.  The inner future is
    rebound during recovery; waiters blocked in :meth:`result` observe the
    old future fail with :class:`BrokenExecutor` (the executor fails all its
    futures when it breaks), drive the pool's recovery, and transparently
    continue waiting on the resubmitted attempt.

    Only the subset of the :class:`concurrent.futures.Future` interface the
    serving layer needs is provided: :meth:`result`, :meth:`exception`,
    :meth:`done`, :meth:`cancel`, :meth:`cancelled`.
    """

    __slots__ = ("_pool", "_task", "_lock", "_inner", "_generation",
                 "_cancelled", "resubmissions")

    def __init__(self, pool: "WorkerPool", fn: Callable[..., R], args, kwargs) -> None:
        self._pool = pool
        self._task = (fn, args, kwargs)
        self._lock = threading.Lock()
        self._inner: Optional[Future] = None
        self._generation = -1
        self._cancelled = False
        #: Times this task was resubmitted after a pool breakage.
        self.resubmissions = 0

    # -- pool-side plumbing ------------------------------------------------------
    def _bind(self, inner: Future, generation: int) -> None:
        with self._lock:
            self._inner = inner
            self._generation = generation

    def _snapshot(self) -> Tuple[Future, int]:
        with self._lock:
            assert self._inner is not None
            return self._inner, self._generation

    def _is_resolved(self) -> bool:
        """True when the inner future carries a real outcome (not breakage)."""
        inner, _ = self._snapshot()
        if self._cancelled or inner.cancelled():
            return True
        if not inner.done():
            return False
        return not isinstance(inner.exception(), BrokenExecutor)

    # -- Future-like API ---------------------------------------------------------
    def cancel(self) -> bool:
        """Give the task up: it will not be resubmitted by recovery.

        Returns whether the *current* attempt could still be cancelled; a
        running attempt keeps running but its result is abandoned either way.
        """
        with self._lock:
            self._cancelled = True
            inner = self._inner
        self._pool._deregister(self)
        return inner.cancel() if inner is not None else True

    def cancelled(self) -> bool:
        return self._cancelled

    def done(self) -> bool:
        """True once the task has a real outcome (result or task exception).

        Observing a broken attempt triggers pool recovery as a side effect —
        after a successful rebuild the task is pending again and ``done()``
        is ``False``; after a terminal failure it is ``True`` and
        :meth:`result` raises :class:`WorkerPoolBroken`.
        """
        inner, generation = self._snapshot()
        if not inner.done():
            return False
        if inner.cancelled():
            return True
        if isinstance(inner.exception(), BrokenExecutor) and not self._cancelled:
            try:
                self._pool._recover(generation)
            except Exception:
                return True  # terminal: result()/exception() surface the error
            inner2, _ = self._snapshot()
            return inner2.done()
        return True

    def result(self, timeout: Optional[float] = None) -> R:
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            inner, generation = self._snapshot()
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0 and not inner.done():
                raise FuturesTimeoutError(f"task not done within {timeout}s")
            try:
                value = inner.result(remaining)
            except FuturesTimeoutError:
                raise
            except BrokenExecutor:
                if self._cancelled:
                    raise
                # Drive recovery; raises WorkerPoolBroken when supervision
                # gives up, otherwise this future was rebound — keep waiting.
                self._pool._recover(generation)
                continue
            except BaseException:
                self._pool._deregister(self)
                raise
            self._pool._deregister(self)
            return value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        try:
            self.result(timeout)
        except FuturesTimeoutError:
            raise
        except BaseException as exc:  # noqa: BLE001 - mirror Future.exception
            return exc
        return None


class WorkerPool:
    """A supervised persistent process pool with one-time per-worker init.

    Unlike :func:`parallel_map` (which builds and tears down an executor per
    call), a :class:`WorkerPool` lives for the duration of a serving session:
    ``initializer(*initargs)`` runs once in every worker when it spawns,
    after the worker took its share of the core budget (module docstring) —
    the serving layer uses it to deserialize a model snapshot and warm its
    packed caches — and subsequent :meth:`submit` calls ship only small task
    descriptors.

    ``start()`` (called lazily by the first :meth:`submit`, or eagerly by the
    owner) spawns and initializes every worker up front, so the first real
    request does not pay process startup or model deserialization.  The pool
    is a context manager; :meth:`close` shuts the workers down.

    Worker death is supervised (see the module docstring): the executor is
    rebuilt, the initializer re-runs, unresolved tasks are resubmitted, and
    :attr:`restarts` counts the rebuilds.  ``max_restarts`` bounds the
    budget; beyond it the pool raises :class:`WorkerPoolBroken` everywhere.
    """

    def __init__(
        self,
        workers: int,
        *,
        initializer: Optional[Callable[..., object]] = None,
        initargs: Tuple = (),
        max_restarts: int = 5,
    ) -> None:
        if workers < 1:
            raise ValueError(f"WorkerPool needs at least 1 worker, got {workers}")
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be non-negative, got {max_restarts}")
        self.workers = int(workers)
        self.max_restarts = int(max_restarts)
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.RLock()
        self._generation = 0
        self._restarts = 0
        self._broken: Optional[BaseException] = None
        self._registry: set = set()

    @property
    def is_running(self) -> bool:
        return self._executor is not None

    @property
    def restarts(self) -> int:
        """Completed supervision rebuilds since the pool (re)started."""
        return self._restarts

    @property
    def pending_tasks(self) -> int:
        """Supervised tasks submitted but not yet consumed (queue + in flight).

        The observability layer reports this as the pool-queue gauge; it is
        an instantaneous count, safe to read from any thread.
        """
        with self._lock:
            return len(self._registry)

    @property
    def is_broken(self) -> bool:
        """True once supervision gave up; :meth:`close` resets the state."""
        return self._broken is not None

    #: Warm-up rounds before :meth:`start` gives up on reaching every worker
    #: (best effort; see below).
    _MAX_WARMUP_ROUNDS = 20

    def start(self) -> "WorkerPool":
        """Spawn and initialize every worker now (idempotent).

        Executors spawn workers on demand, and completed warm-up tasks say
        nothing about *which* worker ran them — a fast worker can swallow
        several while a sibling is still inside its initializer.  So this
        submits warm-up rounds until it has seen every worker's pid report
        back (each round holds finished workers briefly so stragglers get
        the remaining tasks), which means every worker completed its
        initializer; an initializer failure surfaces here, not mid-traffic.
        The pid chase is bounded (:attr:`_MAX_WARMUP_ROUNDS`) — on a
        pathologically slow machine start() degrades to best-effort warm
        rather than hanging.
        """
        with self._lock:
            if self._broken is not None:
                raise WorkerPoolBroken(
                    "worker pool is permanently broken; close() it before reuse"
                ) from self._broken
            if self._executor is None:
                self._spawn()
        return self

    def _spawn(self) -> None:
        """Build a fresh executor and warm every worker (caller holds the lock)."""
        self._executor = _budgeted_executor(self.workers, self._initializer, self._initargs)
        seen_pids: set = set()
        for round_index in range(self._MAX_WARMUP_ROUNDS):
            missing = self.workers - len(seen_pids)
            if not missing:
                break
            hold = 0.0 if round_index == 0 else 0.02 * round_index
            warmups = [
                self._executor.submit(_worker_warmup, hold) for _ in range(missing)
            ]
            done, _pending = wait(warmups)
            for future in done:
                seen_pids.add(future.result())  # surfaces initializer failures

    def submit(self, fn: Callable[..., R], /, *args, **kwargs) -> SupervisedFuture:
        """Schedule ``fn(*args, **kwargs)``; returns its supervised future.

        ``fn`` must be a deterministic picklable function of its arguments:
        supervision re-executes it after a worker crash, and only a pure
        task makes the re-execution indistinguishable from the first run.
        """
        supervised = SupervisedFuture(self, fn, args, kwargs)
        with self._lock:
            if self._executor is None:
                self.start()
            while True:
                assert self._executor is not None
                try:
                    inner = self._executor.submit(fn, *args, **kwargs)
                except BrokenExecutor:
                    self._recover(self._generation)  # raises when terminal
                    continue
                break
            supervised._bind(inner, self._generation)
            self._registry.add(supervised)
        return supervised

    def _recover(self, broken_generation: int) -> None:
        """Rebuild after a breakage observed on ``broken_generation``.

        Any number of waiter threads may race here; only the first to hold
        the lock for the still-current generation performs the rebuild (and
        the resubmission of every unresolved supervised task).  Late
        arrivals see an advanced generation and return immediately — their
        futures were already rebound.  Raises :class:`WorkerPoolBroken`
        when the restart budget is exhausted or the rebuild itself fails.
        """
        with self._lock:
            if self._broken is not None:
                raise WorkerPoolBroken(
                    f"worker pool gave up after {self._restarts} restart(s)"
                ) from self._broken
            if broken_generation != self._generation:
                return  # another waiter already recovered this breakage
            old, self._executor = self._executor, None
            self._generation += 1
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            if self._restarts >= self.max_restarts:
                self._broken = WorkerPoolBroken(
                    f"worker pool broke again after {self._restarts} restart(s) "
                    f"(max_restarts={self.max_restarts})"
                )
                self._registry.clear()
                raise self._broken
            try:
                self._spawn()
            except BaseException as exc:
                self._broken = exc
                self._registry.clear()
                raise WorkerPoolBroken(
                    "worker pool could not be rebuilt after a crash"
                ) from exc
            self._restarts += 1
            _LOG.warning(
                "worker pool rebuilt after a crash (restart %d/%d, generation %d); "
                "resubmitting %d unresolved task(s)",
                self._restarts, self.max_restarts, self._generation, len(self._registry),
            )
            # Resubmit everything the crash invalidated; tasks that already
            # resolved (real result or real task exception) keep their
            # outcome, and consumed tasks were deregistered long ago.
            for supervised in list(self._registry):
                if supervised._is_resolved():
                    self._registry.discard(supervised)
                    continue
                fn, args, kwargs = supervised._task
                assert self._executor is not None
                inner = self._executor.submit(fn, *args, **kwargs)
                supervised._bind(inner, self._generation)
                supervised.resubmissions += 1

    def _deregister(self, supervised: SupervisedFuture) -> None:
        with self._lock:
            self._registry.discard(supervised)

    def close(self) -> None:
        """Shut the workers down (idempotent); pending futures are cancelled.

        Also clears the broken state and the restart budget: an explicit
        close + start is a deliberate fresh pool, not a supervised rebuild.
        """
        with self._lock:
            executor, self._executor = self._executor, None
            self._generation += 1
            self._restarts = 0
            self._broken = None
            self._registry.clear()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass
