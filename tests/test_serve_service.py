"""Registry and service semantics: versioning, warm starts, micro-batching,
backpressure and stats.

The load-bearing guarantees:

* registry round-trip — register, restart (a fresh registry over the same
  directory), load: the served bytes are identical;
* coalescing is invisible in the bytes — requests whose chunks share the
  pool return exactly what each would return served alone, because every
  request keeps its own seed's chunk streams;
* backpressure — the bounded in-flight budget blocks (or refuses) new
  admissions instead of queueing unbounded work;
* pipelined dispatch — the pool is refilled from the fair queue each time
  a request is delivered, so an arrival overlaps the requests still in
  flight, and ``microbatch_rows`` bounds the rows in flight.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.models.base import Surrogate
from repro.models.smote import SMOTESurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.serve import (
    AdmissionPolicy,
    AutoscalePolicy,
    ModelRegistry,
    RequestSpec,
    SamplingService,
    ServiceOverloaded,
    ShardedSampler,
)
from repro.serve.service import SampleRequest, _FairQueue
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

CHUNK = 50


def _table(n=400, seed=29):
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.normal(size=n) * 3.0,
        "cat": rng.choice(["a", "b", "c"], n),
        "site": rng.choice([f"s{i}" for i in range(9)], n),
    }
    return Table(
        data, TableSchema.from_columns(numerical=["x"], categorical=["cat", "site"])
    )


@pytest.fixture(scope="module")
def table():
    return _table()


@pytest.fixture(scope="module")
def tvae(table):
    return TVAESurrogate(TVAEConfig.fast(), seed=5).fit(table)


class TestModelRegistry:
    def test_versions_increment(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        assert registry.register("tvae-prod", tvae) == "v1"
        assert registry.register("tvae-prod", tvae) == "v2"
        assert registry.versions("tvae-prod") == ["v1", "v2"]
        assert registry.latest_version("tvae-prod") == "v2"
        assert registry.names() == ["tvae-prod"]

    def test_round_trip_after_restart_serves_identical_bytes(self, tvae, table, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        registry.register("m", tvae)
        reference = tvae.sample(120, seed=11)
        # A fresh registry over the same directory = a server restart.
        restarted = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        loaded = restarted.get("m")
        assert loaded is not tvae
        assert loaded.sample(120, seed=11) == reference
        # And the sharded engine over the loaded model keeps the contract.
        with ShardedSampler(loaded, workers=2, chunk_size=CHUNK) as sampler:
            assert sampler.sample(120, seed=11) == Table.concat(
                list(tvae.sample_batches(120, CHUNK, seed=11))
            )

    def test_get_is_cached_and_warm(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        registry.register("m", tvae)
        restarted = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        loaded = restarted.get("m")
        assert restarted.get("m") is loaded
        # Warm start: the packed serving caches exist before any request.
        assert getattr(loaded, "_packed_decoder", None) is not None
        assert getattr(loaded, "_serving_block_sampler", None) is not None

    def test_cold_cached_model_is_warmed_by_a_later_warm_get(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        registry.register("m", tvae, warm=False)
        restarted = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        cold = restarted.get("m", warm=False)
        assert getattr(cold, "_packed_decoder", None) is None
        # warm defaults to True and must warm the instance cached cold above.
        warmed = restarted.get("m")
        assert warmed is cold
        assert getattr(warmed, "_packed_decoder", None) is not None

    def test_version_pinning(self, table, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        first = SMOTESurrogate(k_neighbors=3).fit(table)
        second = SMOTESurrogate(k_neighbors=5).fit(table)
        registry.register("m", first)
        registry.register("m", second)
        assert registry.get("m", "v1").sample(40, seed=2) == first.sample(40, seed=2)
        assert registry.get("m").sample(40, seed=2) == second.sample(40, seed=2)

    def test_rejects_unfitted_and_bad_names(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path)
        with pytest.raises(RuntimeError, match="unfitted"):
            registry.register("m", TVAESurrogate())
        with pytest.raises(ValueError, match="invalid model name"):
            registry.register("../escape", tvae)
        with pytest.raises(KeyError, match="no model registered"):
            registry.get("missing")
        registry.register("m", tvae)
        with pytest.raises(KeyError, match="no version"):
            registry.get("m", "v99")


class _SlowSurrogate(Surrogate):
    """Deterministic test double: constant output, configurable delay/failure."""

    name = "slow"

    def __init__(self, delay=0.0, fail_on=None):
        super().__init__()
        self.delay = delay
        self.fail_on = fail_on

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        if self.fail_on is not None and n == self.fail_on:
            raise RuntimeError("injected sampling failure")
        if self.delay:
            time.sleep(self.delay)
        return Table({"x": np.zeros(n)}, self.schema_)


def _slow_model(delay=0.0, fail_on=None):
    table = Table({"x": np.arange(8.0)}, TableSchema.from_columns(numerical=["x"]))
    return _SlowSurrogate(delay=delay, fail_on=fail_on).fit(table)


class TestSamplingService:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_microbatched_equals_individual(self, tvae, workers):
        seeds = [101, 202, 303, 404]
        with SamplingService(tvae, workers=workers, chunk_size=CHUNK) as service:
            requests = [
                service.submit(RequestSpec(120, seed=seed, sampling_mode="fast")) for seed in seeds
            ]
            coalesced = [request.result(timeout=120) for request in requests]
        with ShardedSampler(tvae, workers=1, chunk_size=CHUNK) as solo:
            for seed, table in zip(seeds, coalesced):
                assert table == solo.sample(120, seed=seed, sampling_mode="fast")

    def test_exact_mode_requests_match_the_streaming_api(self, tvae):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as service:
            served = service.sample(RequestSpec(110, seed=13, sampling_mode="exact"))
        assert served == Table.concat(list(tvae.sample_batches(110, CHUNK, seed=13)))

    def test_zero_row_request(self, tvae):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as service:
            empty = service.sample(RequestSpec(0, seed=1))
        assert len(empty) == 0
        assert empty.schema == tvae.schema_

    def test_stats_account_requests_and_rows(self, tvae):
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as service:
            for seed in range(3):
                service.sample(RequestSpec(60, seed=seed))
            stats = service.stats()
        assert stats.total_requests == 3
        assert stats.total_rows == 180
        assert stats.rows_per_second > 0
        assert stats.queue_depth == 0
        assert stats.in_flight_rows == 0
        assert 0 <= stats.p50_latency <= stats.p95_latency

    def test_done_callbacks_run_before_done_and_never_break_the_dispatcher(self):
        with SamplingService(_slow_model(delay=0.1), workers=1) as service:
            request = service.submit(RequestSpec(10, seed=1))
            seen = []
            request.add_done_callback(lambda resolved: seen.append(resolved.done()))
            request.add_done_callback(lambda resolved: 1 / 0)  # logged, not raised
            assert len(request.result(timeout=30)) == 10
            # Already resolved: the callback runs at once.
            request.add_done_callback(lambda resolved: seen.append(resolved.done()))
            assert seen == [False, True]
            assert len(service.sample(RequestSpec(5, seed=2))) == 5

    def test_autoscale_stays_inside_the_core_budget(self, tvae, monkeypatch):
        # max_workers=4 and a demand of 8 workers' rows would resize a
        # 2-core host into 4 processes; the budget caps the pool at 2.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        policy = AutoscalePolicy(max_workers=4, rows_per_worker=CHUNK)
        with SamplingService(tvae, autoscale=policy, chunk_size=CHUNK) as service:
            served = service.sample(RequestSpec(8 * CHUNK, seed=3, sampling_mode="fast"))
            assert service.workers == 2
        with ShardedSampler(tvae, workers=1, chunk_size=CHUNK) as solo:
            assert served == solo.sample(8 * CHUNK, seed=3, sampling_mode="fast")

    def test_backpressure_rejects_when_budget_is_full(self):
        model = _slow_model(delay=0.3)
        with SamplingService(
            model, workers=1, chunk_size=1000, max_inflight_rows=100
        ) as service:
            first = service.submit(RequestSpec(80, seed=1))  # occupies the budget while slow
            with pytest.raises(ServiceOverloaded):
                service.submit(RequestSpec(50, seed=2), wait=False)
            # Blocking submission waits for the budget instead of failing.
            second = service.submit(RequestSpec(50, seed=3))
            assert len(first.result(timeout=30)) == 80
            assert len(second.result(timeout=30)) == 50

    def test_oversized_request_admitted_when_idle(self):
        model = _slow_model()
        with SamplingService(
            model, workers=1, chunk_size=1000, max_inflight_rows=10
        ) as service:
            assert len(service.sample(RequestSpec(500, seed=1))) == 500

    def test_blocked_submitters_wake_in_parallel(self):
        model = _slow_model(delay=0.2)
        with SamplingService(
            model, workers=1, chunk_size=1000, max_inflight_rows=100
        ) as service:
            service.submit(RequestSpec(90, seed=1))
            results = []

            def late_submit():
                results.append(service.sample(RequestSpec(90, seed=2)))

            thread = threading.Thread(target=late_submit)
            thread.start()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(results) == 1 and len(results[0]) == 90

    def test_invalid_seed_rejected_in_the_callers_thread(self, tvae):
        # A bad seed must fail at submit(), not kill the dispatcher thread
        # (which would wedge every other request).
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as service:
            with pytest.raises(TypeError):
                service.submit(RequestSpec(10, seed="not-a-seed"))
            assert len(service.sample(RequestSpec(20, seed=1))) == 20  # still healthy

    def test_admission_is_fifo(self):
        # An oversized request blocked on the budget must not be starved by
        # later small requests: admission order is arrival order.
        model = _slow_model(delay=0.15)
        with SamplingService(
            model, workers=1, chunk_size=1000, max_inflight_rows=100
        ) as service:
            service.submit(RequestSpec(90, seed=1))  # occupies the budget
            order = []

            def submit_big():
                service.submit(RequestSpec(95, seed=2))  # needs the budget to fully drain
                order.append("big")

            def submit_small():
                service.submit(RequestSpec(10, seed=3))
                order.append("small")

            big = threading.Thread(target=submit_big)
            big.start()
            time.sleep(0.05)  # the big request is queued first...
            small = threading.Thread(target=submit_small)
            small.start()
            big.join(timeout=30)
            small.join(timeout=30)
            assert order and order[0] == "big"

    def test_sampling_failures_propagate_to_the_request(self):
        model = _slow_model(fail_on=13)
        with SamplingService(model, workers=1, chunk_size=1000) as service:
            good = service.submit(RequestSpec(7, seed=1))
            bad = service.submit(RequestSpec(13, seed=2))
            assert len(good.result(timeout=30)) == 7
            with pytest.raises(RuntimeError, match="injected sampling failure"):
                bad.result(timeout=30)

    def test_validation_and_close_semantics(self, tvae):
        service = SamplingService(tvae, workers=1, chunk_size=CHUNK)
        with pytest.raises(ValueError, match="unknown sampling mode"):
            service.submit(RequestSpec(5, sampling_mode="turbo"))
        with pytest.raises(ValueError, match="negative"):
            service.submit(RequestSpec(-2))
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            service.submit(RequestSpec(5, seed=1))
        with pytest.raises(ValueError, match="positive"):
            SamplingService(tvae, workers=1, max_inflight_rows=0)


class _StampSurrogate(Surrogate):
    """Sleeps ``DELAYS[n]`` seconds; every row holds the call's
    ``time.monotonic()`` start (one clock across processes)."""

    name = "stamp"
    DELAYS = {100: 0.1, 300: 0.3, 1500: 1.5}

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        started = time.monotonic()
        time.sleep(self.DELAYS.get(n, 0.0))
        return Table({"x": np.full(n, started)}, self.schema_)


def _stamp_model():
    table = Table({"x": np.arange(8.0)}, TableSchema.from_columns(numerical=["x"]))
    return _StampSurrogate().fit(table)


class TestPipelinedDispatch:
    def test_an_arrival_runs_while_a_long_request_is_still_in_flight(self):
        # A (0.3 s) and B (1.5 s) are in flight together when C arrives,
        # 0.1 s after X is delivered.  C must start once A is delivered
        # rather than wait for B: the pool is refilled at every delivery.
        with SamplingService(_stamp_model(), workers=2, chunk_size=2000) as service:
            x = service.submit(RequestSpec(100, seed=1))
            a = service.submit(RequestSpec(300, seed=2))
            b = service.submit(RequestSpec(1500, seed=3))
            x.result(timeout=30)
            time.sleep(0.1)
            c = service.submit(RequestSpec(7, seed=4))
            c_started = c.result(timeout=30)["x"][0]
            b_started = b.result(timeout=30)["x"][0]
            a.result(timeout=30)
        b_ended = b_started + _StampSurrogate.DELAYS[1500]
        assert c_started <= b_ended - 0.5, (c_started - b_started, b_ended - b_started)

    def test_fair_queue_keeps_the_rows_in_flight_within_the_bound(self):
        queue = _FairQueue()
        for n in (100, 100, 500, 100):
            queue.push(SampleRequest(RequestSpec(n)))

        def pop(max_rows, in_flight_rows):
            return [request.spec.n for request in queue.pop_batch(max_rows, in_flight_rows)]

        assert pop(300, 100) == [100, 100]
        assert pop(300, 100) == []  # 500 does not fit beside what is in flight
        assert pop(300, 0) == [500]  # oversized: dispatched alone
        assert pop(300, 300) == []
        assert pop(None, 10_000) == [100]

    def test_rows_in_flight_never_exceed_microbatch_rows(self):
        # One-chunk requests: every pool task is one dispatched, undelivered
        # request of 100 rows, so 300 rows allow at most 3 tasks.  The pool
        # is kept full: the bound is reached, not just respected.
        model = _slow_model(delay=0.05)
        with SamplingService(
            model, workers=2, chunk_size=100, microbatch_rows=300
        ) as service:
            seen, done = [], threading.Event()

            def watch():
                while not done.is_set():
                    seen.append(service._sampler.pool_pending_tasks)
                    time.sleep(0.001)

            watcher = threading.Thread(target=watch)
            watcher.start()
            try:
                requests = [service.submit(RequestSpec(100, seed=i)) for i in range(24)]
                for request in requests:
                    assert len(request.result(timeout=60)) == 100
            finally:
                done.set()
                watcher.join(timeout=30)
            assert not watcher.is_alive()
        assert max(seen) == 3

    def test_admission_rate_tracks_the_delivered_throughput(self):
        # The deadline estimator is fed once per delivery.  Two workers end
        # chunks in pairs, delivered microseconds apart; the estimate must
        # still be the rows delivered per second, not one short gap's rate.
        with SamplingService(
            _slow_model(delay=0.05), workers=2, chunk_size=1000, admission=AdmissionPolicy()
        ) as service:
            started = time.perf_counter()
            requests = [service.submit(RequestSpec(100, seed=i)) for i in range(24)]
            for request in requests:
                request.result(timeout=60)
            delivered = 24 * 100 / (time.perf_counter() - started)
            estimated = 1000 / service._admission.estimated_wait(1000)
        assert 0.5 < estimated / delivered < 2, (estimated, delivered)

    def test_stress_submitters_swap_and_cancel(self, tvae):
        submitters, per_thread = 16, 6
        delivered, cancelled, errors = [], [], []
        record = threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with SamplingService(
                tvae, workers=2, chunk_size=CHUNK, microbatch_rows=4 * CHUNK
            ) as service:
                started = threading.Barrier(submitters + 1)

                def submit(k):
                    try:
                        started.wait(timeout=30)
                        for j in range(per_thread):
                            spec = RequestSpec(
                                10 + 37 * ((k + j) % 5),
                                seed=1000 * k + j,
                                tenant=f"t{k % 3}",
                                priority=("interactive", "normal", "batch")[j % 3],
                            )
                            handle = service.submit(spec)
                            if (k + j) % 7 == 3 and handle.cancel():
                                with record:
                                    cancelled.append(spec)
                                continue
                            table = handle.result(timeout=60)
                            with record:
                                delivered.append((spec, table))
                    except BaseException as exc:  # noqa: BLE001 - asserted below
                        errors.append(exc)

                threads = [threading.Thread(target=submit, args=(k,)) for k in range(submitters)]
                for thread in threads:
                    thread.start()
                started.wait(timeout=30)
                service.swap_model(tvae, timeout=60)  # mid-stream: the same model
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                stats = service.stats()
                swaps = service.model_swaps
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(delivered) + len(cancelled) == submitters * per_thread
        assert cancelled, "no cancel landed before its request was delivered"
        assert (stats.queue_depth, stats.in_flight_rows) == (0, 0)
        assert stats.total_requests == len(delivered)
        assert stats.cancelled_requests == len(cancelled)
        assert stats.total_rows == sum(spec.n for spec, _ in delivered)
        assert swaps == 1
        with ShardedSampler(tvae, workers=1, chunk_size=CHUNK) as solo:
            for spec, table in delivered:
                assert table == solo.sample(spec.n, seed=spec.seed, sampling_mode="fast")


class TestRegistryStagesAndIntegrity:
    def test_stage_aliases_resolve_and_promote_flips_prod(self, tvae, table, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        v1 = registry.register("m", tvae, stage="prod")
        candidate = SMOTESurrogate().fit(table)
        v2 = registry.register("m", candidate, stage="canary")
        assert registry.stages("m") == {"prod": v1, "canary": v2}
        assert registry.get("m", "canary") is registry.get("m", v2)
        # Promoting the canary alias flips prod atomically and clears canary.
        assert registry.promote("m", "canary") == v2
        assert registry.stage_version("m", "prod") == v2
        assert registry.stage_version("m", "canary") is None

    def test_clear_stage_is_the_rollback_path(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        registry.register("m", tvae, stage="canary")
        assert registry.clear_stage("m", "canary") is True
        assert registry.clear_stage("m", "canary") is False
        with pytest.raises(KeyError, match="no stage 'canary'"):
            registry.get("m", "canary")

    def test_stage_names_are_validated(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        version = registry.register("m", tvae)
        for bad in ("v3", "9lives", "pro d"):
            with pytest.raises(ValueError, match="invalid stage"):
                registry.set_stage("m", bad, version)
        with pytest.raises(KeyError, match="no version"):
            registry.set_stage("m", "prod", "v99")

    def test_corrupted_snapshot_raises_not_unpickles(self, tvae, tmp_path):
        from repro.serve.registry import RegistryCorrupted

        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        version = registry.register("m", tvae)
        registry.verify("m", version)  # intact snapshot passes
        path = registry.path_of("m", version)
        payload = bytearray(path.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        path.write_bytes(bytes(payload))
        with pytest.raises(RegistryCorrupted, match="SHA-256"):
            registry.verify("m", version)
        # A fresh registry (cold cache) must refuse to load the tampered bytes.
        with pytest.raises(RegistryCorrupted, match="SHA-256"):
            ModelRegistry(tmp_path, warm_chunk_rows=CHUNK).get("m", version)

    def test_sidecarless_legacy_snapshot_loads_but_fails_explicit_verify(
        self, tvae, tmp_path
    ):
        from repro.serve.registry import RegistryCorrupted

        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        version = registry.register("m", tvae)
        registry.digest_path_of("m", version).unlink()
        fresh = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        assert fresh.get("m", version).is_fitted  # lenient legacy load
        with pytest.raises(RegistryCorrupted, match="no SHA-256 sidecar"):
            fresh.verify("m", version)

    def test_writes_leave_no_temp_files(self, tvae, tmp_path):
        registry = ModelRegistry(tmp_path, warm_chunk_rows=CHUNK)
        registry.register("m", tvae, stage="prod")
        leftovers = [p for p in (tmp_path / "m").iterdir() if ".tmp-" in p.name]
        assert leftovers == []


class TestHotSwap:
    def test_swap_serves_the_new_model_with_no_lost_requests(self, tvae, table):
        replacement = SMOTESurrogate().fit(table)
        with SamplingService(tvae, workers=1, chunk_size=CHUNK) as service:
            before = service.sample(RequestSpec(70, seed=21, sampling_mode="fast"))
            service.swap_model(replacement)
            after = service.sample(RequestSpec(70, seed=21, sampling_mode="fast"))
            assert service.model_swaps == 1
        with ShardedSampler(tvae, workers=1, chunk_size=CHUNK) as solo:
            assert before == solo.sample(70, seed=21, sampling_mode="fast")
        with ShardedSampler(replacement, workers=1, chunk_size=CHUNK) as solo:
            assert after == solo.sample(70, seed=21, sampling_mode="fast")

    def test_swap_rejects_unfitted_and_closed(self, tvae, table):
        service = SamplingService(tvae, workers=1, chunk_size=CHUNK)
        with pytest.raises(RuntimeError, match="not fitted"):
            service.swap_model(SMOTESurrogate())
        service.close()
        with pytest.raises(RuntimeError, match="closed"):
            service.swap_model(SMOTESurrogate().fit(table))
