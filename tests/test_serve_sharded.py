"""The sharding contract: worker count changes wall clock, never bytes.

``ShardedSampler`` fans ``sample_batches`` chunks across a process pool;
because every chunk draws from its own ``SeedSequence`` child stream, the
reassembled output must be byte-identical

* to the single-process ``sample_batches`` concatenation, and
* across worker counts {1, 2, 4} — including 4 workers on a 1-core box —

for **all five surrogates in both sampling modes**.  These tests prove it,
plus the request-validation and lifecycle semantics around it and the
codes-only chunk a pool worker returns.
"""

import pickle

import numpy as np
import pytest

from repro.models.base import Surrogate
from repro.models.ctabgan import CTABGANConfig, CTABGANPlusSurrogate
from repro.models.gaussian_copula import GaussianCopulaSurrogate
from repro.models.smote import SMOTESurrogate
from repro.models.tabddpm.model import TabDDPMConfig, TabDDPMSurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.serve import RequestSpec, ShardedSampler, table_fingerprint
from repro.serve.sharded import _ChunkRun
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from repro.utils.parallel import WORKERS_ENV, openblas_threads

N_ROWS = 130
CHUNK = 40  # deliberately a non-divisor of N_ROWS: chunk plan (40, 40, 40, 10)
WORKER_COUNTS = (1, 2, 4)
MODES = ("exact", "fast")
SURROGATES = ("tvae", "ctabgan", "tabddpm", "smote", "copula")


def _serving_table(n=500, seed=23):
    rng = np.random.default_rng(seed)
    data = {
        "x0": np.round(rng.lognormal(1.0, 0.7, n), 2),
        "x1": rng.normal(size=n) * 4.0,
        "cat_a": rng.choice(["a", "b"], n, p=[0.7, 0.3]),
        "cat_b": rng.choice(["u", "v", "w"], n),
        # Wide enough to exercise the relaxed width-bucket kernels.
        "cat_wide": rng.choice([f"s{i}" for i in range(11)], n),
    }
    return Table(
        data,
        TableSchema.from_columns(
            numerical=["x0", "x1"], categorical=["cat_a", "cat_b", "cat_wide"]
        ),
    )


@pytest.fixture(scope="module")
def table():
    return _serving_table()


@pytest.fixture(scope="module")
def models(table):
    return {
        "tvae": TVAESurrogate(TVAEConfig.fast(), seed=3).fit(table),
        "ctabgan": CTABGANPlusSurrogate(CTABGANConfig.fast(), seed=3).fit(table),
        "tabddpm": TabDDPMSurrogate(TabDDPMConfig.fast(), seed=3).fit(table),
        "smote": SMOTESurrogate(k_neighbors=3).fit(table),
        "copula": GaussianCopulaSurrogate().fit(table),
    }


class TestWorkerCountInvariance:
    """The acceptance bar: bytes identical for workers in {1, 2, 4}, both modes."""

    @pytest.mark.parametrize("name", SURROGATES)
    def test_all_surrogates_both_modes(self, models, name):
        model = models[name]
        references = {
            mode: Table.concat(
                list(model.sample_batches(N_ROWS, CHUNK, seed=7, sampling_mode=mode))
            )
            for mode in MODES
        }
        for workers in WORKER_COUNTS:
            with ShardedSampler(model, workers=workers, chunk_size=CHUNK) as sampler:
                for mode in MODES:
                    result = sampler.sample(N_ROWS, seed=7, sampling_mode=mode)
                    assert result == references[mode], (name, workers, mode)

    def test_chunk_size_changes_the_stream_but_stays_invariant(self, models):
        # Different chunk_size → different chunk streams (documented), but
        # each chunk_size is still worker-count-invariant.
        model = models["tvae"]
        with ShardedSampler(model, workers=2, chunk_size=64) as sampler:
            other_chunking = sampler.sample(N_ROWS, seed=7)
        with ShardedSampler(model, workers=1, chunk_size=64) as sampler:
            assert sampler.sample(N_ROWS, seed=7) == other_chunking
        with ShardedSampler(model, workers=1, chunk_size=CHUNK) as sampler:
            assert sampler.sample(N_ROWS, seed=7) != other_chunking


class TestSeedObjectReplay:
    """A seed object is read, never advanced: the same seed serves the same bytes."""

    def test_same_spec_twice_serves_the_same_bytes(self, models):
        model = models["tvae"]
        spec = RequestSpec(300, seed=np.random.SeedSequence(9), sampling_mode="exact")
        reference = Table.concat(list(model.sample_batches(300, 100, seed=np.random.SeedSequence(9))))
        with ShardedSampler(model, workers=1, chunk_size=100) as sampler:
            served = [table_fingerprint(sampler.sample(spec)) for _ in range(2)]
        assert served == [table_fingerprint(reference)] * 2

    @pytest.mark.parametrize(
        "seed", [np.random.SeedSequence(9), np.random.default_rng(9)], ids=["seed-sequence", "generator"]
    )
    def test_sample_batches_twice_with_one_seed_object(self, models, seed):
        model = models["copula"]
        first, second = (
            table_fingerprint(Table.concat(list(model.sample_batches(300, 100, seed=seed))))
            for _ in range(2)
        )
        assert first == second


class TestStreaming:
    def test_chunks_arrive_in_order_with_the_right_sizes(self, models):
        with ShardedSampler(models["smote"], workers=2, chunk_size=CHUNK) as sampler:
            chunks = list(sampler.sample_batches(N_ROWS, seed=5, sampling_mode="fast"))
        assert [len(c) for c in chunks] == [40, 40, 40, 10]
        reference = list(
            models["smote"].sample_batches(N_ROWS, CHUNK, seed=5, sampling_mode="fast")
        )
        assert all(a == b for a, b in zip(chunks, reference))

    def test_oversized_chunk_is_one_shot(self, models):
        with ShardedSampler(models["smote"], workers=4, chunk_size=4096) as sampler:
            chunks = list(sampler.sample_batches(90, seed=2))
        assert [len(c) for c in chunks] == [90]

    def test_early_exit_leaves_no_pending_tasks(self, models):
        # Closing a stream after its first chunk cancels the window's
        # in-flight siblings: nothing stays queued in the pool.
        with ShardedSampler(models["tvae"], workers=2, chunk_size=20) as sampler:
            stream = sampler.sample_batches(400, seed=3, sampling_mode="fast")
            next(stream)
            stream.close()
            assert sampler.pool_pending_tasks == 0

    def test_zero_rows(self, models):
        model = models["copula"]
        for workers in (1, 4):
            with ShardedSampler(model, workers=workers, chunk_size=CHUNK) as sampler:
                assert list(sampler.sample_batches(0, seed=1)) == []
                empty = sampler.sample(0, seed=1)
                assert len(empty) == 0
                assert empty.schema == model.schema_


class TestLifecycleAndValidation:
    def test_rejects_unfitted_model(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            ShardedSampler(TVAESurrogate())

    def test_rejects_bad_chunk_size(self, models):
        with pytest.raises(ValueError, match="chunk_size"):
            ShardedSampler(models["smote"], chunk_size=0)

    def test_rejects_bad_requests(self, models):
        sampler = ShardedSampler(models["smote"], workers=1)
        with pytest.raises(ValueError, match="negative"):
            sampler.sample(-1, seed=1)
        with pytest.raises(ValueError, match="unknown sampling mode"):
            sampler.sample(10, seed=1, sampling_mode="turbo")

    def test_workers_default_resolves_from_env(self, models, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert ShardedSampler(models["smote"]).workers == 3

    def test_close_is_idempotent_and_restart_works(self, models):
        sampler = ShardedSampler(models["smote"], workers=2, chunk_size=CHUNK)
        first = sampler.sample(80, seed=9)
        assert sampler.is_running
        sampler.close()
        assert not sampler.is_running
        sampler.close()
        sampler.restart()
        assert sampler.is_running
        assert sampler.sample(80, seed=9) == first
        sampler.close()

    def test_restart_picks_up_a_refit(self, table):
        model = SMOTESurrogate(k_neighbors=3).fit(table)
        sampler = ShardedSampler(model, workers=2, chunk_size=CHUNK).start()
        before = sampler.sample(60, seed=4)
        other = _serving_table(n=300, seed=99)
        model.fit(other)
        # The running pool still serves the old snapshot by design...
        assert sampler.sample(60, seed=4) == before
        # ...and restart() re-snapshots the refitted model.
        sampler.restart()
        refit = sampler.sample(60, seed=4)
        assert refit.schema == other.schema
        assert refit == Table.concat(list(model.sample_batches(60, CHUNK, seed=4)))
        sampler.close()


class _BlasProbe(Surrogate):
    """Test double: every sampled row holds its process's OpenBLAS thread count."""

    name = "blas-probe"

    def fit(self, table):
        self._mark_fitted(table)
        return self

    def _sample_exact(self, n, *, seed=None):
        threads = max(openblas_threads().values())
        return Table({"x": np.full(n, float(threads))}, self.schema_)


class TestCoreBudget:
    @pytest.mark.skipif(not openblas_threads(), reason="no OpenBLAS is mapped")
    def test_resize_reapplies_the_budget(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "2")
        probe = _BlasProbe().fit(
            Table({"x": np.zeros(4)}, TableSchema.from_columns(numerical=["x"]))
        )
        parent = max(openblas_threads().values())
        with ShardedSampler(probe, workers=2, chunk_size=10) as sampler:
            assert set(sampler.sample(40, seed=1)["x"]) == {1.0}
            sampler.resize(1)  # in-process: the parent's threads
            assert set(sampler.sample(40, seed=1)["x"]) == {float(parent)}
            sampler.resize(2)  # a fresh pool takes its share again
            assert set(sampler.sample(40, seed=1)["x"]) == {1.0}
        assert max(openblas_threads().values()) == parent


class TestChunkRun:
    def test_median_latency_matches_the_sorted_form(self, models):
        run = _ChunkRun(ShardedSampler(models["smote"], workers=1), in_process=True)
        assert run.median_latency() is None
        seen = []
        for value in np.random.default_rng(5).exponential(size=300).tolist():
            run.record_latency(value)
            seen.append(value)
            assert run.median_latency() == sorted(seen)[len(seen) // 2]


class TestChunkReturnPath:
    """A pool worker returns the chunk table itself: codes, never strings."""

    ROWS = 4096

    @pytest.mark.parametrize("name", SURROGATES)
    def test_chunk_pickles_to_its_column_buffers(self, models, name):
        for mode in MODES:
            chunk = models[name].sample(self.ROWS, seed=11, sampling_mode=mode)
            categorical = [chunk.categorical_column(c) for c in chunk.schema.categorical]
            assert all(column._decoded is None for column in categorical), (name, mode)
            buffers = self.ROWS * (8 * len(chunk.schema.numerical) + 4 * len(categorical))
            overhead = len(pickle.dumps(chunk)) - buffers
            assert 0 <= overhead <= 2048, (name, mode, overhead)
