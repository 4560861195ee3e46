"""Tests for repro.utils.parallel."""

import os
import time
from concurrent.futures import BrokenExecutor

import numpy  # noqa: F401 - maps numpy's OpenBLAS into this process
import pytest

from repro.utils import parallel
from repro.utils.parallel import (
    OPENBLAS_THREADS_ENV,
    WORKERS_ENV,
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
        with pytest.raises(Exception):
            pool.start()
        pool.close()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="at least 1"):
            WorkerPool(0)


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
            held = [pool.submit(parallel._worker_warmup, 30.0) for _ in range(3)]
            # The crash poisons the whole executor: every future of its
            # generation fails, and the pool replays none of them.
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
