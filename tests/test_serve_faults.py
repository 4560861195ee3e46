"""Fault tolerance is provable equality: every recovered fault must leave bytes.

The sharding seed contract (chunk ``i`` draws from the ``i``-th seed child)
means a re-executed chunk — after a worker kill, a retried failure, an
abandoned deadline, or as a hedged duplicate — regenerates identical output.
So each fault path is tested against the fault-free single-process reference,
not against statistics:

* worker kill mid-chunk → the pool rebuilds, the chunk run resubmits → bytes;
* transient chunk failure → bounded retry/backoff → bytes;
* straggler chunk → deadline resubmission and hedging → bytes;
* pool collapse (restart budget exhausted) → the service degrades to
  in-process generation with zero lost requests → bytes.

Faults come from the deterministic :mod:`repro.serve.faults` harness: plans
are seedable/parsable data, and their exactly-once token latch lives on disk
so a fault fires the planned number of times across processes, retries and
executor rebuilds.
"""

import sys
import threading
import time
from concurrent.futures import CancelledError

import numpy as np
import pytest

from repro.models.base import Surrogate
from repro.models.gaussian_copula import GaussianCopulaSurrogate
from repro.models.smote import SMOTESurrogate
from repro.serve import (
    ChunkError,
    ChunkPolicy,
    Fault,
    FaultPlan,
    InjectedFault,
    RequestSpec,
    SamplingService,
    ServiceOverloaded,
    ShardedSampler,
)
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from repro.utils.parallel import WorkerPoolBroken

N_ROWS = 300
CHUNK = 50  # chunk plan: six 50-row chunks
SEED = 17
MODES = ("exact", "fast")


def _serving_table(n=400, seed=23):
    rng = np.random.default_rng(seed)
    data = {
        "x": np.round(rng.lognormal(1.0, 0.7, n), 2),
        "cat": rng.choice(["a", "b", "c"], n),
        "site": rng.choice([f"s{i}" for i in range(7)], n),
    }
    return Table(
        data, TableSchema.from_columns(numerical=["x"], categorical=["cat", "site"])
    )


@pytest.fixture(scope="module")
def models():
    table = _serving_table()
    return {
        "smote": SMOTESurrogate(k_neighbors=4).fit(table),
        "copula": GaussianCopulaSurrogate().fit(table),
    }


def _chunk_count(sampler, name):
    """A ``repro_serve_chunk_<name>_total`` counter from the sampler's registry."""
    return sampler.metrics.counter(f"repro_serve_chunk_{name}_total").total()


def _reference(model, mode, n=N_ROWS, seed=SEED):
    """The fault-free single-process ground truth for a request."""
    return Table.concat(list(model.sample_batches(n, CHUNK, seed=seed, sampling_mode=mode)))


@pytest.fixture
def plan():
    plans = []

    def _make(spec):
        made = FaultPlan.parse(spec)
        plans.append(made)
        return made

    yield _make
    for made in plans:
        made.cleanup()


class TestFaultPlan:
    def test_parse_grammar(self):
        faults = FaultPlan.parse("kill@1, delay@3:0.25, fail@0*2").faults
        assert faults == [
            Fault("kill", 1),
            Fault("delay", 3, 0.25),
            Fault("fail", 0, times=2),
        ]

    @pytest.mark.parametrize(
        "spec", ["", "explode@1", "kill@", "kill@1:0.5", "fail@-1", "delay@2"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_fault_validation(self):
        with pytest.raises(ValueError, match="positive value"):
            Fault("delay", 0)
        with pytest.raises(ValueError, match="at least 1"):
            Fault("kill", 0, times=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("oops", 0)

    def test_random_is_seed_deterministic(self):
        a = FaultPlan.random(8, n_faults=3, seed=5)
        b = FaultPlan.random(8, n_faults=3, seed=5)
        try:
            assert a.faults == b.faults
            assert all(0 <= f.chunk < 8 for f in a.faults)
            assert all(f.kind in ("kill", "delay", "fail") for f in a.faults)
        finally:
            a.cleanup()
            b.cleanup()

    def test_fail_fires_exactly_once_then_runs_clean(self, plan):
        p = plan("fail@2")
        with pytest.raises(InjectedFault):
            p.inject(2)
        p.inject(2)  # token spent: clean
        p.inject(3)  # untargeted chunk: always clean
        assert p.spent() == 1

    def test_arm_resets_the_once_latch(self, plan):
        p = plan("fail@0")
        with pytest.raises(InjectedFault):
            p.inject(0)
        p.inject(0)
        p.arm()
        with pytest.raises(InjectedFault):
            p.inject(0)
        assert p.spent() == 1

    def test_times_budget_spans_repeated_executions(self, plan):
        p = plan("fail@1*2")
        for _ in range(2):
            with pytest.raises(InjectedFault):
                p.inject(1)
        p.inject(1)  # budget exhausted
        assert p.spent() == 2

    def test_delay_sleeps(self, plan):
        p = plan("delay@0:0.05")
        start = time.monotonic()
        p.inject(0)
        assert time.monotonic() - start >= 0.05
        p.inject(0)  # spent: no second sleep

    def test_plan_survives_pickling_with_shared_latch(self, plan):
        import pickle

        p = plan("fail@0")
        clone = pickle.loads(pickle.dumps(p))
        with pytest.raises(InjectedFault):
            clone.inject(0)
        p.inject(0)  # the clone's claim is visible to the original
        assert p.spent() == 1


class TestKillRecovery:
    """A worker killed mid-chunk loses nothing: the pool is rebuilt (the
    initializer re-runs) and the chunk run resubmits every chunk the crash
    took down — identical bytes."""

    @pytest.mark.parametrize("name", ["smote", "copula"])
    @pytest.mark.parametrize("mode", MODES)
    def test_kill_mid_request_is_byte_identical(self, models, plan, name, mode):
        # No retry budget at all: a crash is not charged to the chunk.
        model = models[name]
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=ChunkPolicy(max_retries=0),
            fault_plan=plan("kill@1"),
        ) as sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode=mode)
            restarts = sampler.pool_restarts
            pending = sampler.pool_pending_tasks
        assert served == _reference(model, mode)
        assert restarts >= 1
        assert pending == 0

    def test_a_crash_resubmits_the_whole_backlog_at_once(self, plan):
        # Sixteen one-row chunks of 0.2 s on two workers.  The kill lands
        # when chunk 2 starts, one chunk time in, and takes at least chunks
        # 2-15 down.  Resubmitted together they take 7 rounds on the rebuilt
        # pool; resubmitted one by one as each is awaited they would take 14,
        # so the request would need at least 15 chunk times.
        delay, chunks = 0.2, 16
        with SamplingService(
            _stall_model(delay=delay), workers=2, chunk_size=1, fault_plan=plan("kill@2")
        ) as service:
            started = time.perf_counter()
            served = service.sample(RequestSpec(chunks, seed=SEED))
            elapsed = time.perf_counter() - started
            stats = service.stats()
        assert len(served) == chunks
        assert stats.pool_restarts == 1
        assert elapsed < (chunks - 1) * delay

    def test_concurrent_runs_share_one_rebuild(self, models, plan):
        # Eight threads sample through one pool while a kill lands: each
        # run resubmits its own lost chunks, the pool is rebuilt once, and
        # the pending count every thread updates returns to zero.
        model = models["smote"]
        seeds = list(range(8))
        served = {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedSampler(
                model, workers=2, chunk_size=CHUNK, fault_plan=plan("kill@1")
            ) as sampler:

                def serve(seed):
                    served[seed] = sampler.sample(N_ROWS, seed=seed, sampling_mode="fast")

                threads = [threading.Thread(target=serve, args=(seed,)) for seed in seeds]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                restarts, pending = sampler.pool_restarts, sampler.pool_pending_tasks
        finally:
            sys.setswitchinterval(switch_interval)
        assert restarts == 1
        assert pending == 0
        for seed in seeds:
            assert served[seed] == _reference(model, "fast", seed=seed)

    def test_two_kills_within_budget(self, models, plan):
        model = models["smote"]
        with ShardedSampler(
            model, workers=2, chunk_size=CHUNK, fault_plan=plan("kill@0,kill@4")
        ) as sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            restarts = sampler.pool_restarts
        assert served == _reference(model, "fast")
        assert restarts >= 2


class TestRetryAndTimeout:
    def test_transient_failure_retries_to_identical_bytes(self, models, plan):
        model = models["smote"]
        policy = ChunkPolicy(max_retries=2, backoff=0.01)
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("fail@2"),
        ) as sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            retries, restarts = _chunk_count(sampler, "retries"), sampler.pool_restarts
        assert served == _reference(model, "fast")
        assert retries >= 1
        assert restarts == 0

    def test_exhausted_retry_budget_raises_chunk_error_with_context(self, models, plan):
        model = models["smote"]
        policy = ChunkPolicy(max_retries=0, backoff=0.0)
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("fail@1*5"),
        ) as sampler:
            with pytest.raises(ChunkError, match=r"chunk 1 \(50 rows\)") as excinfo:
                sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
        assert excinfo.value.index == 1
        assert excinfo.value.size == CHUNK
        assert isinstance(excinfo.value.__cause__, InjectedFault)

    def test_timed_out_attempt_is_resubmitted_byte_identically(self, models, plan):
        model = models["smote"]
        policy = ChunkPolicy(timeout=0.2, max_retries=2, backoff=0.01)
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("delay@1:1.5"),
        ) as sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            timeouts, retries = _chunk_count(sampler, "timeouts"), _chunk_count(sampler, "retries")
        assert served == _reference(model, "fast")
        assert timeouts >= 1
        assert retries >= 1

    def test_serial_path_wraps_failures_in_chunk_error(self):
        model = _failing_model()
        with ShardedSampler(model, workers=1, chunk_size=CHUNK) as sampler:
            with pytest.raises(ChunkError, match=r"chunk 0 \(50 rows\)") as excinfo:
                sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
        assert excinfo.value.index == 0
        assert isinstance(excinfo.value.__cause__, RuntimeError)


class TestHedging:
    def test_straggler_is_hedged_byte_identically(self, models, plan):
        model = models["smote"]
        policy = ChunkPolicy(hedge_multiplier=2.0, min_hedge_latency=0.05, backoff=0.01)
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("delay@3:1.0"),
        ) as sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            hedges, wins = _chunk_count(sampler, "hedges"), _chunk_count(sampler, "hedge_wins")
            restarts = sampler.pool_restarts
        assert served == _reference(model, "fast")
        assert hedges >= 1
        assert wins >= 1
        assert restarts == 0

    @pytest.mark.parametrize("mode", MODES)
    def test_hedged_service_requests_match_solo(self, models, plan, mode):
        model = models["copula"]
        policy = ChunkPolicy(hedge_multiplier=2.0, min_hedge_latency=0.05, backoff=0.01)
        with SamplingService(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("delay@2:1.0"),
        ) as service:
            served = service.sample(RequestSpec(N_ROWS, seed=SEED, sampling_mode=mode))
            stats = service.stats()
        assert served == _reference(model, mode)
        assert stats.hedges >= 1


class TestServiceFaultTolerance:
    @pytest.mark.parametrize("name", ["smote", "copula"])
    @pytest.mark.parametrize("mode", MODES)
    def test_kill_mid_request_service_byte_identity(self, models, plan, name, mode):
        model = models[name]
        with SamplingService(
            model, workers=2, chunk_size=CHUNK, fault_plan=plan("kill@1")
        ) as service:
            served = service.sample(RequestSpec(N_ROWS, seed=SEED, sampling_mode=mode))
            stats = service.stats()
        assert served == _reference(model, mode)
        assert stats.pool_restarts >= 1

    def test_pool_collapse_degrades_with_zero_lost_requests(self, models, plan):
        # The kill keeps firing past the restart budget: supervision gives up
        # (WorkerPoolBroken) and the dispatcher must finish every admitted
        # request in-process instead of erroring.
        model = models["smote"]
        seeds = [11, 22, 33]
        with SamplingService(
            model,
            workers=2,
            chunk_size=CHUNK,
            fault_plan=plan("kill@1*6"),
            max_pool_restarts=1,
        ) as service:
            requests = [
                service.submit(RequestSpec(N_ROWS, seed=seed, sampling_mode="fast")) for seed in seeds
            ]
            tables = [request.result(timeout=120) for request in requests]
            stats = service.stats()
            assert service.degraded
        for seed, table in zip(seeds, tables):
            assert table == _reference(model, "fast", seed=seed)
        assert stats.degraded_passes >= 1
        assert stats.pool_restarts >= 1
        assert stats.total_requests == len(seeds)

    def test_degraded_from_the_first_failure(self, models, plan):
        model = models["copula"]
        with SamplingService(
            model,
            workers=2,
            chunk_size=CHUNK,
            fault_plan=plan("kill@0*3"),
            max_pool_restarts=0,
        ) as service:
            served = service.sample(RequestSpec(N_ROWS, seed=SEED, sampling_mode="exact"))
            stats = service.stats()
            assert service.degraded
        assert served == _reference(model, "exact")
        assert stats.degraded_passes >= 1

    def test_every_request_after_the_collapse_counts_as_degraded(self, models, plan):
        # The first request falls back mid-flight; the next two run
        # in-process from the start because the pool is broken.  All three
        # are degraded passes.  A single-worker service never is.
        model = models["copula"]
        seeds = [1, 2, 3]
        with SamplingService(
            model,
            workers=2,
            chunk_size=CHUNK,
            fault_plan=plan("kill@0*3"),
            max_pool_restarts=0,
        ) as service:
            tables = [service.sample(RequestSpec(N_ROWS, seed=seed, sampling_mode="fast")) for seed in seeds]
            degraded = service.stats().degraded_passes
        with SamplingService(model, workers=1, chunk_size=CHUNK) as single:
            assert single.sample(RequestSpec(N_ROWS, seed=seeds[0], sampling_mode="fast")) == tables[0]
            assert single.stats().degraded_passes == 0
        for seed, table in zip(seeds, tables):
            assert table == _reference(model, "fast", seed=seed)
        assert degraded == len(seeds)

    def test_chunk_error_reaches_only_its_request(self, models, plan):
        # One request's chunk exhausts its budget; a sibling request in
        # flight with it must still be served.
        model = models["smote"]
        policy = ChunkPolicy(max_retries=0, backoff=0.0)
        with SamplingService(
            model,
            workers=2,
            chunk_size=CHUNK,
            chunk_policy=policy,
            fault_plan=plan("fail@3*8"),
        ) as service:
            doomed = service.submit(RequestSpec(N_ROWS, seed=SEED, sampling_mode="fast"))
            small = service.submit(RequestSpec(CHUNK, seed=99, sampling_mode="fast"))
            with pytest.raises(ChunkError, match="chunk 3"):
                doomed.result(timeout=120)
            assert small.result(timeout=120) == _reference(
                model, "fast", n=CHUNK, seed=99
            )


class _StallSurrogate(Surrogate):
    """Deterministic test double with a configurable per-call delay."""

    name = "stall"

    def __init__(self, delay=0.0):
        super().__init__()
        self.delay = delay

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        if self.delay:
            time.sleep(self.delay)
        return Table({"x": np.zeros(n)}, self.schema_)


def _stall_model(delay=0.0):
    table = Table({"x": np.arange(8.0)}, TableSchema.from_columns(numerical=["x"]))
    return _StallSurrogate(delay=delay).fit(table)


class _FailingSurrogate(Surrogate):
    """Test double whose every sampling call fails (serial ChunkError path)."""

    name = "failing"

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        raise RuntimeError("synthetic generation failure")


def _failing_model():
    table = Table({"x": np.arange(8.0)}, TableSchema.from_columns(numerical=["x"]))
    return _FailingSurrogate().fit(table)


class TestCancellation:
    def test_cancel_releases_the_backpressure_budget_exactly_once(self):
        model = _stall_model(delay=0.25)
        with SamplingService(
            model, workers=1, chunk_size=1000, max_inflight_rows=100
        ) as service:
            first = service.submit(RequestSpec(80, seed=1))  # occupies the dispatcher
            waiting = service.submit(RequestSpec(15, seed=2))  # queued: 95/100 admitted
            with pytest.raises(ServiceOverloaded):
                service.submit(RequestSpec(20, seed=3), wait=False)
            assert waiting.cancel() is True
            assert waiting.cancelled
            # The cancelled request's 15 rows are back: 80 + 20 now fits.
            third = service.submit(RequestSpec(20, seed=4), wait=False)
            with pytest.raises(CancelledError):
                waiting.result(timeout=5)
            assert len(first.result(timeout=30)) == 80
            assert len(third.result(timeout=30)) == 20
            stats = service.stats()
        assert stats.cancelled_requests == 1
        assert stats.in_flight_rows == 0

    def test_cancel_after_completion_is_a_noop(self):
        model = _stall_model()
        with SamplingService(model, workers=1, chunk_size=1000) as service:
            request = service.submit(RequestSpec(10, seed=1))
            assert len(request.result(timeout=30)) == 10
            assert request.cancel() is False
            assert not request.cancelled
            assert service.stats().cancelled_requests == 0

    def test_result_timeout_message_mentions_cancel(self):
        model = _stall_model(delay=0.4)
        with SamplingService(model, workers=1, chunk_size=1000) as service:
            request = service.submit(RequestSpec(10, seed=1))
            with pytest.raises(TimeoutError, match="cancel"):
                request.result(timeout=0.01)
            assert len(request.result(timeout=30)) == 10


class TestPoolBrokenSurfaces:
    def test_sampler_raises_worker_pool_broken_unwrapped(self, models, plan):
        # Without the service's degraded fallback, pool collapse is the
        # caller's to see — unwrapped, not disguised as a ChunkError.
        model = models["smote"]
        with ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            fault_plan=plan("kill@0*6"),
            max_pool_restarts=1,
        ) as sampler:
            with pytest.raises(WorkerPoolBroken):
                sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            assert sampler.pool_broken
