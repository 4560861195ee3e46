"""The relaxed serving mode: distribution-identical, stream-free, faster.

``sampling_mode="fast"`` waives the exact mode's bit/stream contract in
exchange for float32 pre-packed network forwards and fused request-sized
batches.  These tests pin what the relaxed mode *does* promise:

* the exact mode stays the default and is untouched by the dispatch,
* fast-mode outputs match exact-mode outputs in distribution — KS-tested per
  numerical column, chi-squared-tested per categorical column,
* ``sample_batches`` streams a request in bounded chunks, deterministically,
* the packed serving forwards agree with the float64 graph forwards to
  float32 accuracy and are rebuilt (not stale-served) after a refit.
"""

import numpy as np
import pytest
from scipy import stats

from repro.models.base import Surrogate
from repro.models.ctabgan import CTABGANConfig, CTABGANPlusSurrogate
from repro.models.gaussian_copula import GaussianCopulaSurrogate
from repro.models.smote import SMOTESurrogate
from repro.models.tabddpm.denoiser import MLPDenoiser, PackedDenoiser
from repro.models.tabddpm.model import TabDDPMConfig, TabDDPMSurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.nn import MLP, PackedForward, Tensor, no_grad
from repro.nn.layers import LayerNorm, Sequential
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table

P_FLOOR = 1e-3


def _mixed_table(n=1000, seed=23):
    rng = np.random.default_rng(seed)
    # 40 sites, like the PanDA ``computingsite`` column: a block at least
    # ``_FAST_LANE_WIDTH_LIMIT`` wide, outside the relaxed draw's lane cubes.
    site_weights = np.linspace(1.0, 3.0, 40)
    data = {
        "x0": np.round(rng.lognormal(1.0, 0.7, n), 2),
        "x1": rng.normal(size=n) * 4.0,
        "cat_a": rng.choice(["a", "b"], n, p=[0.7, 0.3]),
        "cat_b": rng.choice(["u", "v", "w"], n),
        "cat_wide": rng.choice([f"s{i}" for i in range(9)], n),
        "cat_site": rng.choice(
            [f"site{i:02d}" for i in range(40)], n, p=site_weights / site_weights.sum()
        ),
    }
    return Table(
        data,
        TableSchema.from_columns(
            numerical=["x0", "x1"], categorical=["cat_a", "cat_b", "cat_wide", "cat_site"]
        ),
    )


@pytest.fixture(scope="module")
def mixed_table():
    return _mixed_table()


@pytest.fixture(scope="module")
def deep_models(mixed_table):
    return {
        "tvae": TVAESurrogate(
            TVAEConfig(latent_dim=8, hidden_dims=(32,), epochs=3, batch_size=128), seed=3
        ).fit(mixed_table),
        "ctabgan": CTABGANPlusSurrogate(
            CTABGANConfig(
                noise_dim=8, generator_dims=(24,), discriminator_dims=(24,),
                gmm_components=3, epochs=2, batch_size=128,
            ),
            seed=3,
        ).fit(mixed_table),
        "tabddpm": TabDDPMSurrogate(
            TabDDPMConfig(
                n_timesteps=16, hidden_dims=(32,), time_embedding_dim=16,
                epochs=2, batch_size=128,
            ),
            seed=3,
        ).fit(mixed_table),
    }


class TestDispatch:
    def test_unknown_mode_rejected(self, deep_models):
        with pytest.raises(ValueError, match="unknown sampling mode"):
            deep_models["tvae"].sample(5, seed=0, sampling_mode="turbo")

    def test_exact_is_the_default(self, deep_models):
        for model in deep_models.values():
            default = model.sample(150, seed=9)
            explicit = model.sample(150, seed=9, sampling_mode="exact")
            assert default == explicit

    def test_fast_support_flags(self, deep_models, mixed_table):
        for model in deep_models.values():
            assert model.supports_fast_sampling
        assert not SMOTESurrogate().supports_fast_sampling
        assert not GaussianCopulaSurrogate().supports_fast_sampling
        assert not Surrogate().supports_fast_sampling

    def test_fallback_models_fast_equals_exact(self, mixed_table):
        # No dedicated relaxed path → "fast" is the exact path, bit for bit.
        for model in (SMOTESurrogate(k_neighbors=3), GaussianCopulaSurrogate()):
            model.fit(mixed_table)
            assert model.sample(200, seed=5, sampling_mode="fast") == model.sample(
                200, seed=5, sampling_mode="exact"
            )


class TestFastModeDistribution:
    """KS / chi-squared: fast-mode samples come from the exact-mode law."""

    N = 2500

    @pytest.mark.parametrize("name", ["tvae", "ctabgan", "tabddpm"])
    def test_numerical_columns_ks(self, deep_models, name, mixed_table):
        model = deep_models[name]
        exact = model.sample(self.N, seed=17, sampling_mode="exact")
        fast = model.sample(self.N, seed=18, sampling_mode="fast")
        for column in mixed_table.schema.numerical:
            result = stats.ks_2samp(exact[column], fast[column])
            assert result.pvalue > P_FLOOR, (name, column, result)

    @pytest.mark.parametrize("name", ["tvae", "ctabgan", "tabddpm"])
    def test_categorical_columns_chi_squared(self, deep_models, name, mixed_table):
        model = deep_models[name]
        exact = model.sample(self.N, seed=17, sampling_mode="exact")
        fast = model.sample(self.N, seed=18, sampling_mode="fast")
        for column in mixed_table.schema.categorical:
            support = sorted(set(exact[column]) | set(fast[column]))
            table = np.array(
                [
                    [int((np.asarray(exact[column]) == c).sum()) for c in support],
                    [int((np.asarray(fast[column]) == c).sum()) for c in support],
                ]
            )
            if table.shape[1] < 2:
                continue  # a single shared category is trivially identical
            result = stats.chi2_contingency(table)
            assert result.pvalue > P_FLOOR, (name, column, table)


class TestSampleBatches:
    def test_chunks_cover_the_request(self, deep_models):
        model = deep_models["tvae"]
        chunks = list(model.sample_batches(1000, 300, seed=4))
        assert [len(c) for c in chunks] == [300, 300, 300, 100]
        for chunk in chunks:
            assert chunk.schema == model.schema_

    def test_deterministic_given_seed(self, deep_models):
        for name, model in deep_models.items():
            for mode in ("exact", "fast"):
                a = list(model.sample_batches(500, 200, seed=7, sampling_mode=mode))
                b = list(model.sample_batches(500, 200, seed=7, sampling_mode=mode))
                assert all(x == y for x, y in zip(a, b)), (name, mode)

    def test_zero_rows_yields_nothing(self, deep_models):
        assert list(deep_models["ctabgan"].sample_batches(0, 128, seed=1)) == []

    def test_oversized_chunk_is_one_shot(self, deep_models):
        chunks = list(deep_models["tabddpm"].sample_batches(120, 4096, seed=2))
        assert [len(c) for c in chunks] == [120]

    def test_invalid_requests_rejected(self, deep_models):
        model = deep_models["tvae"]
        with pytest.raises(ValueError, match="chunk_size"):
            model.sample_batches(10, 0, seed=1)
        with pytest.raises(ValueError, match="negative"):
            model.sample_batches(-5, 16, seed=1)
        with pytest.raises(ValueError, match="unknown sampling mode"):
            model.sample_batches(10, 5, seed=1, sampling_mode="turbo")
        with pytest.raises(RuntimeError, match="not fitted"):
            TVAESurrogate().sample_batches(10, 5, seed=1)

    def test_distribution_matches_monolithic(self, deep_models, mixed_table):
        model = deep_models["tvae"]
        streamed = np.concatenate(
            [c["x0"] for c in model.sample_batches(2400, 500, seed=21, sampling_mode="fast")]
        )
        monolithic = model.sample(2400, seed=22, sampling_mode="fast")["x0"]
        assert stats.ks_2samp(streamed, monolithic).pvalue > P_FLOOR


class TestPackedForward:
    def _mlp(self, seed=0, **kwargs):
        return MLP(12, [24, 16], 8, seed=seed, **kwargs)

    def test_matches_graph_forward_to_float32(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(64, 12))
        for kwargs in ({}, {"fused": False}, {"activation": "tanh"}, {"dropout": 0.3}):
            mlp = self._mlp(**kwargs)
            mlp.eval()
            with no_grad():
                reference = mlp(Tensor(x)).numpy()
            packed = PackedForward(mlp, np.float32)
            np.testing.assert_allclose(packed(x), reference, rtol=2e-4, atol=2e-5)

    def test_buffers_reused_per_batch_size(self):
        packed = PackedForward(self._mlp(), np.float32)
        x = np.zeros((10, 12))
        assert packed(x) is packed(x)

    def test_layer_norm_is_rejected(self):
        mlp = self._mlp(layer_norm=True, fused=False)
        with pytest.raises(TypeError, match="cannot pack"):
            PackedForward(mlp, np.float32)

    def test_non_sequential_rejected(self):
        with pytest.raises(TypeError, match="expected an MLP"):
            PackedForward(LayerNorm(4), np.float32)
        with pytest.raises(ValueError, match="nothing to pack"):
            PackedForward(Sequential(), np.float32)

    def test_packed_denoiser_matches_graph(self):
        denoiser = MLPDenoiser(9, hidden_dims=(16,), time_embedding_dim=8, seed=2)
        denoiser.eval()
        rng = np.random.default_rng(3)
        state = rng.normal(size=(40, 9))
        t_vector = np.full(40, 5, dtype=np.int64)
        with no_grad():
            reference = denoiser(Tensor(state), t_vector).numpy()
        packed = PackedDenoiser(denoiser, np.float32)
        np.testing.assert_allclose(packed(state, 5), reference, rtol=2e-4, atol=2e-5)
        view = packed.serving_state(40)
        view[:] = state
        np.testing.assert_allclose(packed(view, 5), reference, rtol=2e-4, atol=2e-5)


class TestExactChunkedDecoder:
    def test_tvae_exact_forward_chunked_bit_identical_at_100k(self, mixed_table):
        # The exact mode decodes large requests through bounded row chunks;
        # the satellite contract is bit-identity with the monolithic float64
        # graph pass at 100k rows (row-chunked affine/activation forwards are
        # independent per row).
        model = TVAESurrogate(TVAEConfig.fast(), seed=6).fit(mixed_table)
        assert TVAESurrogate._EXACT_FORWARD_CHUNK < 100_000
        chunked = model.sample(100_000, seed=31)
        original = TVAESurrogate._EXACT_FORWARD_CHUNK
        TVAESurrogate._EXACT_FORWARD_CHUNK = 1 << 60  # monolithic pass
        try:
            monolithic = model.sample(100_000, seed=31)
        finally:
            TVAESurrogate._EXACT_FORWARD_CHUNK = original
        assert chunked == monolithic


class TestRelaxedCodeSampler:
    """``sample_codes_fast``: same per-block law, wide blocks lane-batched."""

    def _sampler_and_logits(self, widths, n, seed=0, dtype=np.float64):
        from repro.models.ctabgan import _SoftmaxBlockSampler

        spans, start = [], 0
        for w in widths:
            spans.append((start, start + w))
            start += w
        rng = np.random.default_rng(seed)
        raw = (rng.normal(size=(n, start)) * 2.0).astype(dtype)
        return _SoftmaxBlockSampler(spans), raw

    def test_same_distribution_as_exact_incl_wide_and_huge_blocks(self):
        # Width 9/12 exercises the relaxed wide bucket, widths 40 and 100
        # the column-wise pass beyond _FAST_LANE_WIDTH_LIMIT.  float32 is
        # the serving dtype; the exact reference draws from the same logits
        # in float64.
        widths = [2, 3, 3, 9, 12, 40, 100]
        for dtype in (np.float64, np.float32):
            sampler, raw = self._sampler_and_logits(widths, n=6000, dtype=dtype)
            exact = sampler.sample_codes(raw.astype(np.float64), np.random.default_rng(1))
            fast = sampler.sample_codes_fast(raw, np.random.default_rng(2))
            assert fast.shape == exact.shape
            for b, w in enumerate(widths):
                observed = np.array(
                    [
                        np.bincount(exact[:, b], minlength=w),
                        np.bincount(fast[:, b], minlength=w),
                    ]
                )
                keep = observed.sum(axis=0) > 0
                result = stats.chi2_contingency(observed[:, keep])
                assert result.pvalue > P_FLOOR, (dtype, b, w, result.pvalue)

    def test_width_one_blocks_are_constant_zero(self):
        sampler, raw = self._sampler_and_logits([1, 4, 1], n=200)
        codes = sampler.sample_codes_fast(raw, np.random.default_rng(3))
        assert (codes[:, 0] == 0).all() and (codes[:, 2] == 0).all()
        assert codes[:, 1].max() <= 3

    def test_float32_logits_supported(self):
        sampler, raw = self._sampler_and_logits([3, 10], n=500, dtype=np.float32)
        codes = sampler.sample_codes_fast(raw, np.random.default_rng(4))
        assert codes[:, 0].max() <= 2 and codes[:, 1].max() <= 9


class TestWarmServingCaches:
    def test_warm_builds_the_lazy_caches(self, deep_models):
        expected_cache = {
            "tvae": "_packed_decoder",
            "ctabgan": "_packed_generator",
            "tabddpm": "_packed_serving",
        }
        for name, model in deep_models.items():
            warmed = model.warm_serving_caches(64)
            assert warmed >= 1, name
            assert getattr(model, expected_cache[name], None) is not None

    def test_warm_rejects_unfitted_and_bad_sizes(self, deep_models):
        with pytest.raises(RuntimeError, match="not fitted"):
            TVAESurrogate().warm_serving_caches()
        with pytest.raises(ValueError, match="chunk_rows"):
            deep_models["tvae"].warm_serving_caches(0)

    def test_packed_forward_warm_preallocates_buffers(self):
        packed = PackedForward(MLP(12, [24, 16], 8, seed=0), np.float32)
        packed.warm(32)
        buffers = packed._buffers[32]
        assert all(b is not None and b.shape[0] == 32 for b in buffers)
        x = np.zeros((32, 12))
        out = packed(x)
        assert out is buffers[-1]

    def test_snapshot_round_trip(self, deep_models):
        model = deep_models["tvae"]
        clone = type(model).from_snapshot(model.serving_snapshot())
        assert clone.sample(40, seed=8) == model.sample(40, seed=8)
        with pytest.raises(TypeError, match="snapshot"):
            TabDDPMSurrogate.from_snapshot(model.serving_snapshot())


class TestServingCachesNotPickled:
    def test_save_drops_packed_caches(self, deep_models, tmp_path):
        transient = ("_packed_serving", "_packed_generator", "_packed_decoder",
                     "_serving_block_sampler", "_block_sampler")
        for name, model in deep_models.items():
            model.sample(30, seed=1, sampling_mode="fast")  # builds the caches
            cold_path = tmp_path / f"{name}-cold.pkl"
            model.save(cold_path)
            loaded = type(model).load(cold_path)
            for attr in transient:
                assert getattr(loaded, attr, None) is None, (name, attr)
            # The caches rebuild lazily: the loaded model still serves, and a
            # model that has served is no bigger on disk than a fresh one.
            assert len(loaded.sample(15, seed=2, sampling_mode="fast")) == 15
            warm_path = tmp_path / f"{name}-warm.pkl"
            loaded.save(warm_path)
            assert warm_path.stat().st_size <= cold_path.stat().st_size * 1.01


class TestRefitInvalidation:
    def test_packed_caches_rebuilt_after_refit(self, mixed_table):
        other = Table(
            {
                "y": np.random.default_rng(0).normal(size=400),
                "cat": np.random.default_rng(1).choice(["p", "q", "r", "s"], 400),
            },
            TableSchema.from_columns(numerical=["y"], categorical=["cat"]),
        )
        for factory in (
            lambda: TVAESurrogate(TVAEConfig.fast(), seed=1),
            lambda: CTABGANPlusSurrogate(CTABGANConfig.fast(), seed=1),
            lambda: TabDDPMSurrogate(TabDDPMConfig.fast(), seed=1),
        ):
            model = factory().fit(mixed_table)
            model.sample(50, seed=1, sampling_mode="fast")  # builds the caches
            model.fit(other)
            refit = model.sample(200, seed=2, sampling_mode="fast")
            fresh = factory().fit(other).sample(200, seed=2, sampling_mode="fast")
            assert refit.schema == other.schema
            assert refit == fresh
