"""The shared-memory chunk transport: invariant bytes, zero leaked segments.

Two contracts are proven here:

* **Transport invariance** — the served bytes (and scenario report
  fingerprints) are identical whether chunks cross the pool as shm
  envelopes or pickled tables, for workers {1, 2}, both sampling modes.
* **Segment hygiene** — after runs that include injected worker kills,
  chunk timeouts and hedge losers (the PR-6 ``FaultPlan`` harness), no
  shared-memory segment remains linked and the transport's spool directory
  is gone.
"""

import os

import numpy as np
import pytest

from repro.models.smote import SMOTESurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.scenarios import ScenarioEngine, get_scenario
from repro.serve import ChunkPolicy, FaultPlan, ShardedSampler
from repro.serve.api import table_fingerprint
from repro.serve.shm import (
    SEGMENT_PREFIX,
    ChunkEncoder,
    ChunkEnvelope,
    ShmSession,
    resolve_transport,
    shm_available,
)
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="multiprocessing.shared_memory unavailable"
)

N_ROWS = 130
CHUNK = 40  # chunk plan (40, 40, 40, 10)
SEED = 17
MODES = ("exact", "fast")
TRANSPORTS = ("pickle", "shm")


def _serving_table(n=400, seed=23):
    rng = np.random.default_rng(seed)
    data = {
        "x0": np.round(rng.lognormal(1.0, 0.7, n), 2),
        "x1": rng.normal(size=n) * 4.0,
        "cat_a": rng.choice(["a", "b"], n, p=[0.7, 0.3]),
        "cat_wide": rng.choice([f"s{i}" for i in range(11)], n),
    }
    return Table(
        data,
        TableSchema.from_columns(
            numerical=["x0", "x1"], categorical=["cat_a", "cat_wide"]
        ),
    )


def _linked_segments():
    """Names of currently linked transport segments (POSIX: /dev/shm)."""
    if not os.path.isdir("/dev/shm"):
        return set()
    return {n for n in os.listdir("/dev/shm") if n.startswith(SEGMENT_PREFIX)}


@pytest.fixture(scope="module")
def table():
    return _serving_table()


@pytest.fixture(scope="module")
def models(table):
    return {
        "tvae": TVAESurrogate(TVAEConfig.fast(), seed=3).fit(table),
        "smote": SMOTESurrogate(k_neighbors=3).fit(table),
    }


class TestTransportResolution:
    def test_explicit_values(self):
        assert resolve_transport("shm") == "shm"
        assert resolve_transport("pickle") == "pickle"
        assert resolve_transport("auto") == "shm"

    def test_env_toggle(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM", "pickle")
        assert resolve_transport() == "pickle"
        monkeypatch.setenv("REPRO_SHM", "1")
        assert resolve_transport() == "shm"
        monkeypatch.delenv("REPRO_SHM")
        assert resolve_transport() == "shm"

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError):
            resolve_transport("carrier-pigeon")

    def test_sampler_records_its_transport(self, models):
        for transport in TRANSPORTS:
            sampler = ShardedSampler(models["smote"], workers=2, transport=transport)
            assert sampler.transport == transport


class TestEnvelopeRoundTrip:
    """The encoder/decoder pair in-process: exact bytes, exact lifecycle."""

    def test_chunk_round_trips_byte_identically(self, models):
        model = models["tvae"]
        session = ShmSession(model)
        encoder = ChunkEncoder(session.config, model)
        chunk = model.sample(CHUNK, seed=5, sampling_mode="exact")
        envelope = encoder.encode(chunk)
        assert envelope.segment is not None
        assert envelope.segment.startswith(SEGMENT_PREFIX)
        assert envelope.n_rows == CHUNK
        # codes-only wire: 2 numericals * 8B + 2 categoricals * 4B per row
        assert envelope.nbytes == CHUNK * (2 * 8 + 2 * 4)
        assert envelope.segment in _linked_segments()
        decoded = session.decoder.decode(envelope)
        assert decoded == chunk
        assert table_fingerprint(decoded) == table_fingerprint(chunk)
        # Decode consumed the segment: name unlinked, token gone.
        assert envelope.segment not in _linked_segments()
        assert os.listdir(session.spool_dir) == []
        assert session.close() == 0

    def test_discard_releases_unconsumed_segments(self, models):
        model = models["smote"]
        session = ShmSession(model)
        encoder = ChunkEncoder(session.config, model)
        envelope = encoder.encode(model.sample(CHUNK, seed=1, sampling_mode="fast"))
        assert envelope.segment in _linked_segments()
        session.decoder.discard(envelope)
        assert envelope.segment not in _linked_segments()
        session.decoder.discard(envelope)  # idempotent
        assert session.close() == 0

    def test_sweep_collects_crash_leftovers(self, models):
        model = models["smote"]
        session = ShmSession(model)
        encoder = ChunkEncoder(session.config, model)
        envelope = encoder.encode(model.sample(CHUNK, seed=2, sampling_mode="fast"))
        # Simulate a parent that never heard back: the spool token is the
        # only record of the segment.
        assert os.listdir(session.spool_dir) == [envelope.segment]
        assert session.close() == 1
        assert envelope.segment not in _linked_segments()
        assert not os.path.isdir(session.spool_dir)

    def test_layout_mismatch_ships_inline(self, models, table):
        session = ShmSession(models["tvae"])
        encoder = ChunkEncoder(session.config, models["tvae"])
        other = table.select(["x0", "cat_a"])  # not the model's schema
        envelope = encoder.encode(other)
        assert envelope.segment is None
        assert envelope.inline == other
        assert session.decoder.decode(envelope) == other
        session.close()


class TestTransportInvariance:
    """The acceptance bar: bytes and fingerprints never depend on transport."""

    @pytest.mark.parametrize("name", ["tvae", "smote"])
    def test_bytes_identical_across_transports_and_workers(self, models, name):
        model = models[name]
        references = {
            mode: Table.concat(
                list(model.sample_batches(N_ROWS, CHUNK, seed=SEED, sampling_mode=mode))
            )
            for mode in MODES
        }
        fingerprints = {mode: table_fingerprint(t) for mode, t in references.items()}
        for transport in TRANSPORTS:
            for workers in (1, 2):
                with ShardedSampler(
                    model, workers=workers, chunk_size=CHUNK, transport=transport
                ) as sampler:
                    for mode in MODES:
                        served = sampler.sample(N_ROWS, seed=SEED, sampling_mode=mode)
                        assert served == references[mode], (name, transport, workers, mode)
                        assert table_fingerprint(served) == fingerprints[mode]

    def test_scenario_fingerprints_invariant_across_transports(self, monkeypatch, tmp_path):
        # The whole drift→retrain→promote loop (including an injected worker
        # kill) must report an identical deterministic core whichever
        # transport carries its chunks.
        spec = get_scenario("chaos-drift").scaled(
            ticks=6,
            window_rows=256,
            train_rows=1024,
            canary_rows=512,
            fault_arm_ticks=(3,),
        )

        def run(transport):
            monkeypatch.setenv("REPRO_SHM", transport)
            root = tmp_path / f"registry-{transport}"
            return ScenarioEngine(spec, seed=7, workers=2, registry_root=root).run()

        by_transport = {t: run(t).deterministic_dict() for t in TRANSPORTS}
        assert by_transport["shm"] == by_transport["pickle"]
        assert by_transport["shm"]["output_fingerprint"]


class TestSegmentHygiene:
    """After faulty runs every segment is unlinked and the spool is gone."""

    def _assert_clean(self, sampler, before):
        spool = sampler._shm_session.spool_dir if sampler._shm_session else None
        sampler.close()
        assert _linked_segments() == before
        if spool is not None:
            assert not os.path.isdir(spool)

    def test_normal_requests_leave_nothing(self, models):
        before = _linked_segments()
        sampler = ShardedSampler(
            models["tvae"], workers=2, chunk_size=CHUNK, transport="shm"
        )
        with sampler:
            for seed in range(5):
                sampler.sample(N_ROWS, seed=seed, sampling_mode="fast")
        assert _linked_segments() == before

    def test_worker_kills_leave_nothing(self, models):
        before = _linked_segments()
        reference = Table.concat(
            list(
                models["smote"].sample_batches(
                    N_ROWS, CHUNK, seed=SEED, sampling_mode="fast"
                )
            )
        )
        sampler = ShardedSampler(
            models["smote"],
            workers=2,
            chunk_size=CHUNK,
            transport="shm",
            fault_plan=FaultPlan.parse("kill@1, kill@2*2"),
        )
        with sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            assert served == reference
            assert sampler.pool_restarts >= 1
        self._assert_clean(sampler, before)

    def test_timeouts_and_hedge_losers_leave_nothing(self, models):
        before = _linked_segments()
        model = models["smote"]
        reference = Table.concat(
            list(model.sample_batches(N_ROWS, CHUNK, seed=SEED, sampling_mode="fast"))
        )
        # One delayed chunk trips the deadline (its late envelope is reaped);
        # another straggler triggers a hedge whose loser is discarded.
        policy = ChunkPolicy(
            timeout=0.5,
            max_retries=3,
            backoff=0.01,
            hedge_multiplier=2.0,
            min_hedge_latency=0.05,
            poll=0.005,
        )
        sampler = ShardedSampler(
            model,
            workers=2,
            chunk_size=CHUNK,
            transport="shm",
            chunk_policy=policy,
            fault_plan=FaultPlan.parse("delay@1:0.8, delay@3:0.3"),
        )
        with sampler:
            served = sampler.sample(N_ROWS, seed=SEED, sampling_mode="fast")
            timeouts = sampler.metrics.counter("repro_serve_chunk_timeouts_total").total()
            hedges = sampler.metrics.counter("repro_serve_chunk_hedges_total").total()
            assert served == reference
        assert timeouts + hedges >= 1
        self._assert_clean(sampler, before)

    def test_many_requests_mixed_faults(self, models):
        # N requests across restarts with kills and delays in the plan:
        # the cumulative leak check of the satellite task.
        before = _linked_segments()
        plan = FaultPlan.parse("kill@0, delay@2:0.2")
        sampler = ShardedSampler(
            models["tvae"],
            workers=2,
            chunk_size=CHUNK,
            transport="shm",
            chunk_policy=ChunkPolicy(max_retries=2, backoff=0.01),
            fault_plan=plan,
        )
        with sampler:
            for seed in range(4):
                sampler.sample(N_ROWS, seed=seed, sampling_mode="fast")
            plan.arm()  # re-arm the latch: the next batch injects again
            for seed in range(4, 8):
                sampler.sample(N_ROWS, seed=seed, sampling_mode="fast")
        self._assert_clean(sampler, before)

    def test_abandoned_futures_are_reaped_not_leaked(self, models):
        # Cancel in-flight chunks mid-stream (early consumer exit) — their
        # envelopes must be reaped by the time the sampler closes.
        before = _linked_segments()
        sampler = ShardedSampler(
            models["tvae"], workers=2, chunk_size=20, transport="shm"
        )
        with sampler:
            stream = sampler.sample_batches(400, seed=3, sampling_mode="fast")
            next(stream)  # consume one chunk, abandon the windowed rest
            stream.close()
        self._assert_clean(sampler, before)


class TestEnvelopePickleCost:
    def test_envelope_is_orders_of_magnitude_smaller_than_the_table(self, models):
        import pickle

        model = models["tvae"]
        session = ShmSession(model)
        encoder = ChunkEncoder(session.config, model)
        chunk = model.sample(CHUNK, seed=5, sampling_mode="fast")
        envelope = encoder.encode(chunk)
        try:
            assert isinstance(envelope, ChunkEnvelope)
            table_bytes = len(pickle.dumps(chunk))
            envelope_bytes = len(pickle.dumps(envelope))
            assert envelope_bytes * 5 <= table_bytes
        finally:
            session.decoder.discard(envelope)
            session.close()
