"""Tests for repro.utils.parallel."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import BrokenExecutor, wait

import numpy  # noqa: F401 - maps numpy's OpenBLAS into this process
import pytest

from repro.utils import parallel
from repro.utils.parallel import (
    OPENBLAS_THREADS_ENV,
    WORKERS_ENV,
    RemoteTraceback,
    WorkerPool,
    WorkerPoolBroken,
    available_workers,
    openblas_threads,
    parallel_map,
    visible_cpus,
)

needs_openblas = pytest.mark.skipif(
    not openblas_threads(), reason="no OpenBLAS is mapped into this process"
)


def _square(x):
    return x * x


class TestVisibleCpus:
    def test_prefers_affinity_mask(self):
        # On Linux the affinity mask is the container/CI truth; elsewhere the
        # helper falls back to cpu_count.
        if hasattr(os, "sched_getaffinity"):
            assert visible_cpus() == max(1, len(os.sched_getaffinity(0)))
        else:
            assert visible_cpus() == (os.cpu_count() or 1)

    def test_at_least_one(self):
        assert visible_cpus() >= 1


class TestAvailableWorkers:
    def test_default_is_visible_budget(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert available_workers(None) == visible_cpus()

    def test_requested_capped(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert available_workers(10_000) <= visible_cpus()

    def test_at_least_one(self):
        assert available_workers(0) >= 1

    def test_env_override_is_the_budget(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert available_workers(None) == 3
        assert available_workers(2) == 2
        # The override is an explicit operator decision: it is not capped by
        # the visible CPUs (CI forces 2 on one-core runners).
        assert available_workers(8) == 3

    def test_env_override_floor_is_one(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "0")
        assert available_workers(None) == 1

    def test_invalid_env_override_rejected(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        with pytest.raises(ValueError, match=WORKERS_ENV):
            available_workers(None)


class TestParallelMap:
    def test_serial_matches_map(self):
        items = list(range(20))
        assert parallel_map(_square, items, workers=1) == [x * x for x in items]

    def test_preserves_order(self):
        items = [5, 3, 1, 4]
        assert parallel_map(_square, items, workers=1) == [25, 9, 1, 16]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=1) == []

    def test_single_item_short_circuits(self):
        assert parallel_map(_square, [7], workers=4) == [49]

    def test_multiprocess_matches_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        items = list(range(8))
        expected = [x * x for x in items]
        assert parallel_map(_square, items, workers=2) == expected

    def test_accepts_generator_input(self):
        assert parallel_map(_square, (i for i in range(4)), workers=1) == [0, 1, 4, 9]


def _pool_init(value):
    global _POOL_PAYLOAD
    _POOL_PAYLOAD = value * 2


def _pool_task(x):
    return _POOL_PAYLOAD + x


def _failing_init():
    raise RuntimeError("worker init boom")


class TestWorkerPool:
    def test_initializer_runs_per_worker(self):
        with WorkerPool(2, initializer=_pool_init, initargs=(21,)) as pool:
            futures = [pool.submit(_pool_task, i)[0] for i in range(6)]
            assert sorted(f.result() for f in futures) == [42 + i for i in range(6)]

    def test_start_is_eager_and_idempotent(self):
        pool = WorkerPool(2, initializer=_pool_init, initargs=(0,))
        assert not pool.is_running
        assert pool.start() is pool
        assert pool.is_running
        assert pool.start() is pool
        pool.close()
        assert not pool.is_running
        pool.close()  # idempotent

    def test_submit_lazily_starts(self):
        pool = WorkerPool(1, initializer=_pool_init, initargs=(1,))
        try:
            assert pool.submit(_pool_task, 0)[0].result() == 2
            assert pool.is_running
        finally:
            pool.close()

    def test_initializer_failure_surfaces_at_start(self):
        pool = WorkerPool(1, initializer=_failing_init)
        with pytest.raises(BrokenExecutor) as excinfo:
            pool.start()
        # The worker's own exception comes back with it, chained.
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        assert str(excinfo.value.__cause__) == "worker init boom"
        assert not pool.is_running
        pool.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(0)


def _hold(seconds):
    time.sleep(seconds)
    return seconds


def _blob(size, delay):
    time.sleep(delay)
    return b"\x01" * size


def _identity(value):
    return value


def _stamped(item):
    """Hold a worker ``item[1]`` seconds; the (start, end) of the hold."""
    _payload, seconds = item
    start = time.monotonic()
    time.sleep(seconds)
    return start, time.monotonic()


def _wait_for(path):
    deadline = time.monotonic() + 60
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.005)
    return path


class _ProbeLock:
    """A generation's write lock that notes a try-acquire which found it
    taken while no task was in flight."""

    def __init__(self, generation, missed):
        self._lock, self._generation, self._missed = generation._write_lock, generation, missed

    def acquire(self, blocking=True):
        got = self._lock.acquire(blocking)
        if not got and not self._generation._in_flight:
            self._missed.set()
        return got

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


class _Unpicklable(Exception):
    def __init__(self):
        super().__init__("cannot travel")
        self.lock = threading.Lock()


def _raise_unpicklable():
    raise _Unpicklable()


def _raise_value_error():
    raise ValueError("travels")


def _start_with_pids(pool):
    """Start ``pool``; the pids of the workers it forked."""
    before = {process.pid for process in multiprocessing.active_children()}
    pool.start()
    return {process.pid for process in multiprocessing.active_children()} - before


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _join_all(threads, timeout=120):
    deadline = time.monotonic() + timeout
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)


class TestWorkerPoolDispatch:
    """Workers share one task pipe; one reader thread resolves the futures."""

    def test_an_idle_worker_takes_the_tasks_behind_a_long_one(self):
        with WorkerPool(2) as pool:
            long_task, _ = pool.submit(_hold, 1.0)
            short_tasks = [pool.submit(_hold, 0.02)[0] for _ in range(6)]
            done, _pending = wait(short_tasks, timeout=30)
            assert len(done) == 6
            assert not long_task.done()
            assert long_task.result(timeout=30) == 1.0

    def test_close_cancels_the_queue_and_lets_tasks_in_flight_finish(self):
        pool = WorkerPool(2)
        pids = _start_with_pids(pool)
        futures = [pool.submit(_hold, 0.2)[0] for _ in range(8)]
        in_flight = [future for future in futures if future.running()]
        queued = [future for future in futures if not future.running()]
        assert in_flight and queued
        closer = threading.Thread(target=pool.close, daemon=True)
        closer.start()
        closer.join(10)
        assert not closer.is_alive()
        assert [future.result(timeout=0) for future in in_flight] == [0.2] * len(in_flight)
        assert all(future.cancelled() for future in queued)
        assert len(pids) == 2 and not any(_alive(pid) for pid in pids)

    def test_a_queued_task_is_written_after_results_that_came_back_during_a_write(self, tmp_path):
        # A submitter still holds the write lock when every task in flight,
        # its own included, has resolved, so the reader's refill finds the
        # lock taken; the submitter must refill after letting go, or the
        # queued task waits forever.
        gate = str(tmp_path / "gate")
        missed, written = threading.Event(), threading.Event()
        with WorkerPool(1) as pool:
            generation = pool._current
            generation._write_lock = _ProbeLock(generation, missed)
            send_bytes = generation._tasks.send_bytes

            def send_then_hold(message):
                send_bytes(message)
                if threading.current_thread().name == "held-submitter":
                    written.set()
                    missed.wait(60)

            generation._tasks.send_bytes = send_then_hold
            gated, _ = pool.submit(_wait_for, gate)
            held = threading.Thread(
                target=pool.submit, args=(_identity, "held"), name="held-submitter", daemon=True
            )
            held.start()
            assert written.wait(60)
            queued, _ = pool.submit(_identity, "queued")  # past the depth of 2
            assert not queued.running()
            open(gate, "w").close()
            assert queued.result(timeout=20) == "queued"
            assert missed.is_set()
            held.join(60)
            assert not held.is_alive()
            assert gated.result(timeout=0) == gate

    def test_parallel_map_items_larger_than_a_pipe_write_still_overlap(self, monkeypatch):
        # Items past the pool's depth (2 x workers) whose pickled form is over
        # PIPE_BUF: they must still overlap, not run one at a time.
        monkeypatch.setenv(WORKERS_ENV, "2")
        spans = parallel_map(_stamped, [(b"\x03" * 8192, 0.1)] * 10, workers=2)
        later = spans[4:]
        assert any(
            a_start < b_end and b_start < a_end
            for index, (a_start, a_end) in enumerate(later)
            for b_start, b_end in later[index + 1:]
        )

    def test_large_tasks_and_results_do_not_deadlock(self):
        # A 2 MiB task argument is still being written behind a third blob
        # task when both workers send their 2 MiB results: the write may
        # block, but never while holding a lock the reader needs.
        size = 2 * 1024 * 1024
        outcome = []

        def submit_and_collect(pool):
            futures = [pool.submit(_blob, size, 0.2)[0] for _ in range(3)]
            futures += [pool.submit(len, b"\x02" * size)[0] for _ in range(3)]
            outcome.extend(len(result) if isinstance(result, bytes) else result
                           for result in (future.result(timeout=60) for future in futures))

        pool = WorkerPool(2)
        pids = _start_with_pids(pool)
        thread = threading.Thread(target=submit_and_collect, args=(pool,), daemon=True)
        thread.start()
        thread.join(60)
        if thread.is_alive():  # deadlocked: kill the workers so that close() returns
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        pool.close()
        assert not thread.is_alive()
        assert outcome == [size] * 6

    def test_concurrent_submitters_each_get_their_own_result(self):
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            results = {}

            def submit_many(pool, first):
                futures = {value: pool.submit(_identity, value)[0] for value in range(first, first + 150)}
                results.update({value: future.result(timeout=60) for value, future in futures.items()})

            with WorkerPool(3) as pool:
                threads = [
                    threading.Thread(target=submit_many, args=(pool, 1000 * index), daemon=True)
                    for index in range(parallel.visible_cpus() + 2)
                ]
                for thread in threads:
                    thread.start()
                _join_all(threads)
            assert len(results) == 150 * len(threads)
            assert all(value == result for value, result in results.items())
        finally:
            sys.setswitchinterval(previous)

    def test_task_exceptions_carry_the_worker_traceback(self):
        with WorkerPool(1) as pool:
            future, generation = pool.submit(_raise_value_error)
            with pytest.raises(ValueError, match="travels") as excinfo:
                future.result(timeout=60)
            assert isinstance(excinfo.value.__cause__, RemoteTraceback)
            assert "_raise_value_error" in str(excinfo.value.__cause__)
            # An exception that cannot be pickled arrives as its traceback.
            future, _ = pool.submit(_raise_unpicklable)
            with pytest.raises(RemoteTraceback) as excinfo:
                future.result(timeout=60)
            assert "_raise_unpicklable" in str(excinfo.value)
            assert "_Unpicklable: cannot travel" in str(excinfo.value)
            # The worker keeps serving.
            assert pool.submit(_square, 5)[0].result(timeout=60) == 25
            assert pool.generation == generation and pool.restarts == 0

    def test_exit_with_an_unclosed_busy_pool_is_prompt_and_quiet(self):
        # multiprocessing terminates the daemonic workers at exit; neither
        # the reader nor the pool's finalizer may hang or report an error.
        src = os.path.dirname(os.path.dirname(os.path.dirname(parallel.__file__)))
        code = (
            "import time\nfrom repro.utils.parallel import WorkerPool\n"
            "pool = WorkerPool(2).start()\nfuture, _ = pool.submit(time.sleep, 30)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")

    def test_a_started_pool_runs_one_named_reader_thread(self):
        before = set(threading.enumerate())
        pool = WorkerPool(2).start()
        try:
            added = set(threading.enumerate()) - before
            assert [thread.name for thread in added] == ["repro-pool-reader"]
        finally:
            pool.close()
        (reader,) = added
        assert not reader.is_alive()


def _die_once(latch_path):
    """Crash the worker the first time only (a cross-process once-latch)."""
    try:
        fd = os.open(latch_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return os.getpid()
    os.close(fd)
    os._exit(87)


def _die_always():
    os._exit(87)


def _die_after(seconds):
    time.sleep(seconds)
    os._exit(87)


def _run_through_crashes(pool, fn, *args):
    """``fn(*args)`` on the pool, recovering it and resubmitting after a crash
    (the caller's half of the recovery contract)."""
    while True:
        future, generation = pool.submit(fn, *args)
        try:
            return future.result(timeout=60)
        except BrokenExecutor:
            pool.recover(generation)


def _init_count(path):
    """Initializer that appends a line per run, so tests can count runs."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")


def _init_runs(path):
    with open(path) as fh:
        return len(fh.read().split())


class TestWorkerPoolSupervision:
    """The pool recovers from a worker death; its caller resubmits."""

    def test_crash_fails_the_generation_with_broken_executor(self):
        with WorkerPool(2) as pool:
            doomed, generation = pool.submit(_die_after, 0.2)
            held = [pool.submit(_hold, 30.0) for _ in range(3)]
            # The crash fails every future of its generation, and the pool
            # replays none of them.
            for future in [doomed] + [future for future, _ in held]:
                with pytest.raises(BrokenExecutor):
                    future.result(timeout=60)
            assert {held_generation for _, held_generation in held} == {generation}
            assert pool.restarts == 0
            assert pool.generation == generation

    def test_recover_rebuilds_once_per_generation(self, tmp_path):
        latch, runs = str(tmp_path / "crash.latch"), str(tmp_path / "init.runs")
        with WorkerPool(2, initializer=_init_count, initargs=(runs,)) as pool:
            assert _init_runs(runs) == 2
            doomed, generation = pool.submit(_die_once, latch)
            with pytest.raises(BrokenExecutor):
                doomed.result(timeout=60)
            pool.recover(generation)
            pool.recover(generation)  # the same crash, reported twice
            assert pool.restarts == 1
            assert pool.generation == generation + 1
            assert _init_runs(runs) == 4  # the initializer re-ran per worker
            # The caller resubmits on the rebuilt pool.
            future, resubmitted = pool.submit(_die_once, latch)
            assert resubmitted == generation + 1
            assert future.result(timeout=60) > 0

    def test_restart_budget_exhaustion_breaks_the_pool(self):
        pool = WorkerPool(2, max_restarts=0)
        try:
            future, generation = pool.submit(_die_always)
            with pytest.raises(BrokenExecutor):
                future.result(timeout=60)
            with pytest.raises(WorkerPoolBroken):
                pool.recover(generation)
            assert pool.is_broken
            with pytest.raises(WorkerPoolBroken):
                pool.recover(generation + 1)
            with pytest.raises(WorkerPoolBroken):
                pool.submit(_square, 3)
            with pytest.raises(WorkerPoolBroken):
                pool.start()
        finally:
            pool.close()

    def test_close_resets_the_broken_state(self):
        pool = WorkerPool(2, max_restarts=0)
        try:
            with pytest.raises(WorkerPoolBroken):
                _run_through_crashes(pool, _die_always)
            assert pool.is_broken
            pool.close()
            assert not pool.is_broken
            assert pool.restarts == 0
            # A fresh start after close is a brand-new restart budget.
            assert _run_through_crashes(pool, _square, 4) == 16
        finally:
            pool.close()

    def test_rejects_negative_restart_budget(self):
        with pytest.raises(ValueError, match="max_restarts"):
            WorkerPool(1, max_restarts=-1)


def _worker_blas(hold):
    """The worker's pid, OpenBLAS thread counts and exported thread cap."""
    time.sleep(hold)
    return os.getpid(), openblas_threads(), os.environ.get(OPENBLAS_THREADS_ENV)


def _blas_by_worker(pool):
    """``{pid: (counts, env)}`` from every worker of the pool's current generation."""
    seen = {}
    for _ in range(50):
        futures = [pool.submit(_worker_blas, 0.05)[0] for _ in range(pool.workers)]
        for future in futures:
            pid, counts, env = future.result(timeout=60)
            seen[pid] = (counts, env)
        if len(seen) == pool.workers:
            break
    assert len(seen) == pool.workers
    return seen


def _assert_one_thread(by_worker):
    for counts, env in by_worker.values():
        assert counts and set(counts.values()) == {1}
        assert env == "1"


@needs_openblas
class TestCoreBudget:
    """Pool workers split the core budget; the parent keeps every thread."""

    @pytest.fixture(autouse=True)
    def _two_core_budget(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")

    def test_pool_workers_run_one_blas_thread_each(self):
        with WorkerPool(2, initializer=_pool_init, initargs=(1,)) as pool:
            _assert_one_thread(_blas_by_worker(pool))

    def test_parent_keeps_its_threads(self):
        before = openblas_threads()
        pool = WorkerPool(2).start()
        assert openblas_threads() == before
        assert pool.submit(_square, 3)[0].result(timeout=60) == 9
        pool.close()
        assert openblas_threads() == before

    def test_parallel_map_workers_run_one_blas_thread_each(self):
        results = parallel_map(_worker_blas, [0.05] * 4, workers=2)
        _assert_one_thread({i: (counts, env) for i, (_pid, counts, env) in enumerate(results)})

    def test_rebuilt_workers_keep_the_budget(self, tmp_path):
        latch = str(tmp_path / "crash.latch")
        with WorkerPool(2) as pool:
            assert _run_through_crashes(pool, _die_once, latch) > 0
            assert pool.restarts >= 1
            _assert_one_thread(_blas_by_worker(pool))

    def test_the_cap_never_raises_a_count(self, monkeypatch):
        # A budget of 8 gives each of 2 workers 4 threads, but a worker never
        # runs more than the parent it forked from.
        monkeypatch.setenv(WORKERS_ENV, "8")
        parent = openblas_threads()
        with WorkerPool(2) as pool:
            for counts, _env in _blas_by_worker(pool).values():
                assert counts == {path: min(4, n) for path, n in parent.items()}


class TestBlasCap:
    @pytest.mark.parametrize("preset, exported", [("8", "2"), ("", "2"), ("1", "1")])
    def test_exports_the_cap_unless_set_lower(self, monkeypatch, preset, exported):
        # The export is what an OpenBLAS loaded later starts from; an
        # operator's lower setting wins.
        monkeypatch.setattr(parallel, "_openblas_controls", dict)
        monkeypatch.setenv(OPENBLAS_THREADS_ENV, preset)
        parallel._cap_openblas_threads(2)
        assert os.environ[OPENBLAS_THREADS_ENV] == exported

    def test_no_proc_is_a_no_op(self, monkeypatch):
        def no_proc(*_args, **_kwargs):
            raise OSError("no /proc")

        monkeypatch.setattr(parallel, "open", no_proc, raising=False)
        monkeypatch.setenv(OPENBLAS_THREADS_ENV, "8")
        assert openblas_threads() == {}
        parallel._cap_openblas_threads(1)
        assert os.environ[OPENBLAS_THREADS_ENV] == "1"
