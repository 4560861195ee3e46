"""Process-parallel plumbing: worker-count resolution, a one-shot parallel
map, and a persistent worker pool that recovers from crashes, for serving.

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

Dispatch
--------
A pool *generation* is ``workers`` forked processes that all take their
tasks from one shared task pipe, a result pipe from each worker back to the
parent, and one reader thread in the parent (``repro-pool-reader``).
:meth:`WorkerPool.submit` pickles a task in the calling thread and writes it
straight into the task pipe while fewer than ``TASKS_PER_WORKER × workers``
tasks are written and unresolved; past that depth the task waits in the
parent's queue.  The reader waits on the result pipes and the worker
sentinels, resolves each future as its result arrives and refills the pipe
from the queue.  An idle worker takes the next task, so a long task holds
back none while a sibling is free.

No lock the reader waits for is held across a pipe write, and the reader
writes only what the pipe takes without blocking, so payloads larger than a
pipe buffer cannot deadlock.  A queued task larger than ``PIPE_BUF`` thus
waits until no task is in flight: a caller with large arguments keeps at
most the depth outstanding and has its tasks written from its own thread,
as :func:`parallel_map` does.

Supervision
-----------
One worker dying (OOM kill, segfault, ``os._exit``) breaks its whole
generation: the reader kills the siblings, fails **every** future of the
generation (queued in the parent, in the pipe or running) with
:class:`~concurrent.futures.process.BrokenProcessPool`, and the generation
takes no more tasks.  :class:`WorkerPool` recovers the pool; its caller
resubmits the work:

* :meth:`WorkerPool.submit` returns a plain :class:`~concurrent.futures.Future`
  and the pool *generation* it was submitted to; a crash fails that
  generation's futures with :class:`BrokenExecutor`;
* :meth:`WorkerPool.recover` rebuilds the workers once per generation,
  however many callers report the same crash: the dead generation is
  closed, a fresh one is forked, and the per-worker initializer re-runs,
  ready handshake included, exactly like :meth:`WorkerPool.start`;
* each rebuild increments :attr:`WorkerPool.restarts`; a crash past
  :attr:`WorkerPool.max_restarts` leaves the pool permanently broken
  (:attr:`WorkerPool.is_broken`), and ``recover``, ``submit`` and
  ``start`` raise :class:`WorkerPoolBroken`, which callers (the sampling
  service) use to fall back to in-process execution.

Only the caller knows which of its tasks are still wanted, so only the
caller resubmits: in the serving layer that is the chunk run of
:mod:`repro.serve.sharded`, which resubmits every chunk attempt a crash
took down.  Resubmission is byte-safe there because chunk tasks are
deterministic pure functions of their arguments (chunk ``i`` draws from the
``i``-th ``SeedSequence`` child, so a re-executed chunk regenerates
identical bytes).  A task that kills its worker on *every* execution is
bounded by the restart budget rather than looping forever.
"""

from __future__ import annotations

import contextlib
import ctypes
import multiprocessing
import os
import select
import selectors
import sys
import threading
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import connection
from multiprocessing.reduction import ForkingPickler
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

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


def parallel_map(
    func: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    *,
    workers: Optional[int] = 1,
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
    """
    work = list(items)
    n_workers = available_workers(workers)
    if n_workers == 1 or len(work) <= 1:
        return [func(item) for item in work]
    with WorkerPool(n_workers) as pool:
        # A one-call pool with at most its depth outstanding, so every task is
        # written from this thread, however large (module docstring, *Dispatch*).
        futures: List[Future] = []
        outstanding: Set[Future] = set()
        for item in work:
            if len(outstanding) >= TASKS_PER_WORKER * n_workers:
                _done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
            futures.append(pool.submit(func, item)[0])
            outstanding.add(futures[-1])
        return [future.result() for future in futures]


class WorkerPoolBroken(RuntimeError):
    """The pool exhausted its restart budget (or could not rebuild).

    Raised by :meth:`WorkerPool.recover`, :meth:`WorkerPool.submit` and
    :meth:`WorkerPool.start` once the pool gave up.  Catching it is the
    signal to degrade to in-process execution (the sampling service does).
    """


class RemoteTraceback(Exception):
    """A failed task's traceback text from its worker: the cause of the
    exception its future raises, or that exception if it could not pickle."""


#: Tasks a generation keeps written and unresolved, per worker: one running
#: and one waiting in the pipe, so a worker that finishes starts its next
#: task without a round trip through the parent.  Tasks past the depth wait
#: in the parent's queue, where a cancel still reaches them.
TASKS_PER_WORKER = 2

#: The largest task the reader writes while others are in flight: a write of
#: ``PIPE_BUF`` bytes (with the 4-byte header) to a writable pipe never blocks.
_ATOMIC_TASK = getattr(select, "PIPE_BUF", 512) - 4

#: A result pipe's buffer (Linux): a serving chunk fits whole, so a worker
#: takes its next task without waiting on the reader, which must win the
#: interpreter lock for every read.
_RESULT_PIPE_BYTES = 1 << 20

_dumps, _loads = ForkingPickler.dumps, ForkingPickler.loads


def _run(task_id: Optional[int], fn: Callable, args: Tuple) -> Tuple[bool, memoryview]:
    """Run a task in a worker; ``(succeeded, pickled reply)``.  A failure replies
    with the exception and its traceback text, or the text alone if unpicklable."""
    try:
        return True, _dumps((task_id, True, fn(*args)))
    except Exception as exc:  # the task's, or the pickling error of its result
        text = "".join(traceback.format_exception(exc))
        try:
            return False, _dumps((task_id, False, (exc, text)))
        except Exception:
            return False, _dumps((task_id, False, (None, text)))


def _start_worker(blas_threads: int, initializer: Optional[Callable], initargs: Tuple) -> int:
    """Worker start: take the pool's share of BLAS threads, then initialize."""
    _cap_openblas_threads(blas_threads)
    if initializer is not None:
        initializer(*initargs)
    return os.getpid()


def _worker_main(tasks, parent_end, take_lock, results, blas_threads, initializer, initargs):
    """A worker: cap BLAS, initialize, report ready (or why not), run tasks."""
    parent_end.close()  # the parent's end of the task pipe, inherited by the fork
    ready, reply = _run(None, _start_worker, (blas_threads, initializer, initargs))
    results.send_bytes(reply)
    while ready:
        try:
            with take_lock:
                message = tasks.recv_bytes()
        except EOFError:  # the parent is gone
            return
        results.send_bytes(_run(*_loads(message))[1])


def _raised(failure: Tuple[Optional[BaseException], str]) -> BaseException:
    exc, text = failure
    if exc is None:
        return RemoteTraceback(text)
    exc.__cause__ = RemoteTraceback(text)
    return exc


class _Generation:
    """One generation of a :class:`WorkerPool` (module docstring, *Dispatch*).
    Futures resolve on the reader thread: done-callbacks must not call the pool."""

    def __init__(self, workers: int, initializer, initargs: Tuple, number: int) -> None:
        self.number = number
        self._depth = TASKS_PER_WORKER * workers
        self._lock = threading.Lock()  # the state, the queue and the in-flight map
        self._write_lock = threading.Lock()  # one message at a time into the task pipe
        self._refill_wanted = False  # a refill found the write lock taken
        self._open = True  # takes tasks
        self._cause = f"pool generation {number} ended before the task finished"
        self._queue: Deque[Tuple[int, Future, memoryview]] = deque()
        self._in_flight: Dict[int, Future] = {}  # by task id: the future's id()
        self._workers: list = []  # (result pipe, process)
        # The platform default (fork on Linux): spawn would re-import numpy,
        # scipy and repro in every worker, at every start and rebuild.
        context = multiprocessing.get_context()
        take_end, self._tasks = context.Pipe(duplex=False)
        take_lock = context.Lock()
        blas_threads = max(1, available_workers(None) // workers)
        try:
            for index in range(workers):
                reader, writer = context.Pipe(duplex=False)
                with contextlib.suppress(ImportError, AttributeError, OSError):  # Linux only
                    from fcntl import F_SETPIPE_SZ, fcntl
                    fcntl(writer.fileno(), F_SETPIPE_SZ, _RESULT_PIPE_BYTES)
                process = context.Process(
                    target=_worker_main,
                    name=f"repro-pool-{number}.{index}",
                    args=(take_end, self._tasks, take_lock, writer, blas_threads, initializer, initargs),
                    daemon=True,
                )
                with writer:
                    process.start()
                self._workers.append((reader, process))
            take_end.close()
            for reader, process in self._workers:
                connection.wait([reader, process.sentinel])
                if not reader.poll():
                    raise BrokenProcessPool(f"pool worker {process.pid} died while starting")
                _none, ready, value = reader.recv()
                if not ready:
                    raise BrokenProcessPool("a pool worker failed to start") from _raised(value)
        except BaseException:
            take_end.close()
            self._teardown()
            raise
        self._writable = select.poll()
        self._writable.register(self._tasks.fileno(), select.POLLOUT)
        self._reader = threading.Thread(target=self._read, name="repro-pool-reader", daemon=True)
        self._reader.start()

    def submit(self, fn: Callable, args: Tuple) -> Future:
        """Write ``fn(*args)`` into the pipe, or queue it past the depth."""
        future: Future = Future()
        task_id = id(future)
        message = _dumps((task_id, fn, args))
        with self._lock:
            if not self._open:
                raise BrokenProcessPool(self._cause)
            if self._queue or len(self._in_flight) >= self._depth:
                self._queue.append((task_id, future, message))
                return future
            future.set_running_or_notify_cancel()
            self._in_flight[task_id] = future
        with self._write_lock:
            try:
                self._tasks.send_bytes(message)
            except OSError:  # the pipe is closed or unread: the reader fails the future
                pass
        self._refill()  # a result may have come back while this thread wrote
        return future

    def _refill(self) -> None:
        """Move queued tasks into the pipe up to the depth without blocking.

        A thread that finds the write lock taken leaves the refill to the
        holder, which repeats it after letting go: a result that came back
        meanwhile may have freed the depth, and no other refill may follow.
        """
        self._refill_wanted = True
        while self._refill_wanted and self._queue and self._write_lock.acquire(blocking=False):
            self._refill_wanted = False
            try:
                while self._write_queued():
                    pass
            except OSError:
                pass  # no worker is left to read it: the reader sees the exits next
            finally:
                self._write_lock.release()

    def _write_queued(self) -> bool:
        """Write the first queued task if that cannot block (the caller holds
        the write lock): it goes in when no task is in flight, so every worker
        reads, or when it fits an atomic write into a pipe that polls
        writable.  False when the queue is empty or the task must wait."""
        with self._lock:
            if not self._queue or len(self._in_flight) >= self._depth:
                return False
            task_id, future, message = self._queue[0]
            if self._in_flight and (len(message) > _ATOMIC_TASK or not self._writable.poll(0)):
                return False
            self._queue.popleft()
            if not future.set_running_or_notify_cancel():
                return True  # cancelled while it waited
            self._in_flight[task_id] = future
        self._tasks.send_bytes(message)
        return True

    def _receive(self, reader) -> bool:
        """Resolve the future of the next reply on ``reader``; False at EOF."""
        try:
            task_id, ok, value = reader.recv()
        except EOFError:
            return False
        with self._lock:
            future = self._in_flight.pop(task_id)
        if ok:
            future.set_result(value)
        else:
            future.set_exception(_raised(value))
        return True

    def _read(self) -> None:
        """The reader thread: resolve results, refill the pipe, end at an exit."""
        try:
            with selectors.DefaultSelector() as selector:
                for worker in self._workers:
                    selector.register(worker[0], selectors.EVENT_READ, worker)
                    selector.register(worker[1].sentinel, selectors.EVENT_READ, worker)
                while True:
                    for key, _events in selector.select():
                        reader, process = key.data
                        if key.fileobj is not reader or not self._receive(reader):
                            process.join()  # its sentinel fired or its pipe ended
                            self._cause = f"pool worker {process.pid} exited with code {process.exitcode}"
                            return
                    self._refill()
        finally:
            self._teardown()

    def _teardown(self) -> None:
        """Kill the workers, fail every future left, close the pool's pipes."""
        with self._lock:
            self._open = False
            workers, self._workers = self._workers, []
            lost = list(self._in_flight.values())
            lost += [future for _id, future, _message in self._queue if future.set_running_or_notify_cancel()]
            self._in_flight.clear()
            self._queue.clear()
            for _reader, process in workers:
                process.kill()
        for future in lost:
            future.set_exception(BrokenProcessPool(self._cause))
        for reader, process in workers:
            process.join()  # not close(): at exit, multiprocessing may still join it
            reader.close()
        with self._write_lock:
            self._tasks.close()

    def close(self) -> None:
        """Cancel the queued tasks, wait for those in flight (none are left
        after a crash), then kill the workers and wait for the reader."""
        with self._lock:
            self._open = False
            queued = [future for _id, future, _message in self._queue]
            self._queue.clear()
            in_flight = list(self._in_flight.values())
        for future in queued:
            future.cancel()
        wait(in_flight)
        with self._lock:
            for _reader, process in self._workers:
                process.kill()
        self._reader.join()


class WorkerPool:
    """A persistent process pool with one-time per-worker init and crash recovery.

    Unlike :func:`parallel_map` (which builds and tears down a pool per
    call), a :class:`WorkerPool` lives for the duration of a serving session:
    ``initializer(*initargs)`` runs once in every worker when it starts,
    after the worker took its share of the core budget (module docstring) —
    the serving layer uses it to deserialize a model snapshot and warm its
    packed caches — and subsequent :meth:`submit` calls ship only small task
    descriptors.

    ``start()`` (called lazily by the first :meth:`submit`, or eagerly by the
    owner) forks and initializes every worker up front, so the first real
    request does not pay process startup or model deserialization.  A
    started pool runs one thread in the parent, the reader that resolves the
    futures (module docstring, *Dispatch*).  The pool is a context manager;
    :meth:`close` shuts the workers down.

    Worker death is recovered, not hidden (module docstring, *Supervision*):
    a caller whose future failed with :class:`BrokenExecutor` calls
    :meth:`recover` with the future's generation and resubmits what it
    still needs.  :attr:`restarts` counts the rebuilds and ``max_restarts``
    bounds them; beyond it the pool raises :class:`WorkerPoolBroken`.
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
        self._current: Optional[_Generation] = None
        self._lock = threading.Lock()
        self._generation = 0
        self._restarts = 0
        self._broken: Optional[BaseException] = None

    @property
    def is_running(self) -> bool:
        return self._current is not None

    @property
    def restarts(self) -> int:
        """Rebuilds after a crash since the pool (re)started."""
        return self._restarts

    @property
    def generation(self) -> int:
        """The current workers' generation.

        A future from an older generation went to workers that have since
        been rebuilt or closed.
        """
        return self._generation

    @property
    def is_broken(self) -> bool:
        """True once the pool gave up; :meth:`close` resets the state."""
        return self._broken is not None

    def start(self) -> "WorkerPool":
        """Fork and initialize every worker now (idempotent).

        Each worker caps its BLAS threads, runs the initializer and reports
        ready with its pid before this returns, so an initializer failure
        surfaces here, not mid-traffic: :class:`BrokenProcessPool` chained
        to the worker's own exception.
        """
        self._started()
        return self

    def _started(self) -> _Generation:
        with self._lock:
            self._raise_if_broken()
            if self._current is None:
                self._current = _Generation(self.workers, self._initializer, self._initargs, self._generation)
            return self._current

    def _raise_if_broken(self) -> None:
        if self._broken is not None:
            raise WorkerPoolBroken(
                f"worker pool gave up after {self._restarts} restart(s); "
                "close() it before reuse"
            ) from self._broken

    def submit(self, fn: Callable[..., R], /, *args) -> Tuple[Future, int]:
        """Schedule ``fn(*args)``; returns ``(future, generation)``.

        ``fn`` and its arguments are pickled in the calling thread; the
        future is a plain :class:`~concurrent.futures.Future` that the pool's
        reader resolves.  A worker crash fails it with
        :class:`BrokenExecutor`; the caller then calls :meth:`recover` with
        ``generation`` and resubmits ``fn`` if it still wants the result —
        which is only byte-safe for a deterministic picklable function of
        its arguments.  A generation found already broken here is recovered
        before the task goes to its successor.
        """
        while True:
            current = self._current or self._started()
            try:
                return current.submit(fn, args), current.number
            except BrokenProcessPool:
                self.recover(current.number)

    def recover(self, generation: int) -> None:
        """Rebuild the workers after a crash observed on ``generation``.

        Once per generation: the first call for the current generation
        closes the dead generation and forks and initializes a fresh one
        (the initializer re-runs); later calls for a past generation return
        at once.  Raises :class:`WorkerPoolBroken` when the restart budget is
        exhausted, the rebuild itself fails, or the pool already gave up.
        """
        with self._lock:
            self._raise_if_broken()
            if generation != self._generation:
                return  # this crash was already recovered
            old, self._current = self._current, None
            self._generation += 1
            if old is not None:
                old.close()
            if self._restarts >= self.max_restarts:
                self._broken = WorkerPoolBroken(
                    f"worker pool broke again after {self._restarts} restart(s) "
                    f"(max_restarts={self.max_restarts})"
                )
                raise self._broken
            try:
                self._current = _Generation(self.workers, self._initializer, self._initargs, self._generation)
            except BaseException as exc:
                self._broken = exc
                raise WorkerPoolBroken(
                    "worker pool could not be rebuilt after a crash"
                ) from exc
            self._restarts += 1
            _LOG.warning(
                "worker pool rebuilt after a crash (restart %d/%d, generation %d)",
                self._restarts, self.max_restarts, self._generation,
            )

    def close(self) -> None:
        """Shut the workers down (idempotent); queued futures are cancelled.

        Tasks in flight finish first.  Also clears the broken state and the
        restart budget: an explicit close + start is a deliberate fresh pool,
        not a crash recovery.
        """
        with self._lock:
            current, self._current = self._current, None
            self._generation += 1
            self._restarts = 0
            self._broken = None
        if current is not None:
            current.close()

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        if sys.is_finalizing():
            return  # the workers are gone and the reader cannot run
        try:
            self.close()
        except Exception:
            pass
