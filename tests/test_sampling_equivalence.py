"""Seed-vs-optimized equivalence for the fast sampling & encoding stack.

The batched sampling paths — the width-grouped reverse diffusion of TabDDPM
(``MultinomialBlockDiffusion.prior_sample_into`` / ``p_sample_into``), the
stacked mode-specific encoder and the direct-from-logits CTABGAN block
sampler — must be *bit- and stream-identical* to the per-block seed chains in
``benchmarks/seed_baselines.py``.  The relaxed (non-stream-exact) condition
sampling mode is covered separately: its draws follow the same distribution,
asserted with chi-squared tests, even though the streams differ.
"""

import os
import sys

import numpy as np
import pytest
from scipy import stats

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))

from seed_baselines import (  # noqa: E402
    SeedCTABGANSurrogate,
    SeedConditionSampler,
    SeedModeSpecificEncoder,
    SeedTabDDPMSurrogate,
)

from repro.models.ctabgan import (  # noqa: E402
    CTABGANConfig,
    CTABGANPlusSurrogate,
    _ConditionSampler,
    _ModeSpecificEncoder,
)
from repro.models.tabddpm.model import TabDDPMConfig, TabDDPMSurrogate  # noqa: E402
from repro.models.tabddpm.multinomial import (  # noqa: E402
    MultinomialBlockDiffusion,
    MultinomialDiffusion,
)
from repro.models.tabddpm.schedule import DiffusionSchedule  # noqa: E402
from repro.tabular.schema import TableSchema  # noqa: E402
from repro.tabular.table import Table  # noqa: E402


def _mixed_table(n=900, seed=23):
    """Narrow one-hot blocks, a wide (9-category) block and interleaved
    numerical columns — exercising both the lane-grouped and the per-block
    fallback paths of the batched samplers."""
    rng = np.random.default_rng(seed)
    data = {
        "cat_wide": rng.choice([f"s{i}" for i in range(9)], n),
        "x0": np.round(rng.lognormal(1.0, 0.7, n), 2),
        "cat_a": rng.choice(["a", "b"], n),
        "x1": rng.normal(size=n) * 4.0,
        "cat_b": rng.choice(["u", "v", "w"], n),
        "cat_c": rng.choice([f"t{i}" for i in range(7)], n),
    }
    return Table(
        data,
        TableSchema.from_columns(
            numerical=["x0", "x1"], categorical=["cat_wide", "cat_a", "cat_b", "cat_c"]
        ),
    )


@pytest.fixture(scope="module")
def mixed_table():
    return _mixed_table()


class TestBlockDiffusionReverseChain:
    """Unit-level: the batched reverse step against the per-block chain."""

    def _setup(self, seed=7):
        # Widths 2..4 (lane-grouped) plus 9 and 11 (per-block fallback).
        widths = [3, 2, 9, 4, 3, 11, 2]
        spans = []
        cursor = 0
        for w in widths:
            spans.append((cursor, cursor + w))
            cursor += w
        schedule = DiffusionSchedule.cosine(12)
        block = MultinomialBlockDiffusion(spans, schedule)
        per_block = [MultinomialDiffusion(w, schedule) for w in widths]
        return spans, schedule, block, per_block, cursor

    def _seed_reverse_step(self, state, prediction, t, spans, per_block, rng):
        out = state.copy()
        for (start, stop), diffusion in zip(spans, per_block):
            logits = prediction[:, start:stop]
            logits = logits - logits.max(axis=1, keepdims=True)
            x0_probs = np.exp(logits)
            x0_probs /= np.maximum(x0_probs.sum(axis=1, keepdims=True), 1e-12)
            out[:, start:stop] = diffusion.p_sample_step(state[:, start:stop], t, x0_probs, rng)
        return out

    def test_prior_matches_per_block(self):
        spans, _schedule, block, _per_block, width = self._setup()
        n = 700
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        state_a = np.zeros((n, width))
        chosen = block.prior_sample_into(state_a, rng_a)
        state_b = np.zeros((n, width))
        for start, stop in spans:
            k = stop - start
            uniform = np.full((n, k), 1.0 / k)
            state_b[:, start:stop] = MultinomialDiffusion._sample_onehot(uniform, rng_b)
        np.testing.assert_array_equal(state_a, state_b)
        np.testing.assert_array_equal(chosen, block.chosen_from(state_a))
        assert rng_a.integers(0, 1 << 40) == rng_b.integers(0, 1 << 40)

    @pytest.mark.parametrize("pass_prev", [True, False])
    def test_full_reverse_chain_matches_per_block(self, pass_prev):
        spans, schedule, block, per_block, width = self._setup()
        n = 500
        rng = np.random.default_rng(11)
        predictions = [rng.normal(size=(n, width)) * 3.0 for _ in range(schedule.n_steps)]
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        state_a = np.zeros((n, width))
        chosen = block.prior_sample_into(state_a, rng_a)
        state_b = np.zeros((n, width))
        for start, stop in spans:
            k = stop - start
            uniform = np.full((n, k), 1.0 / k)
            state_b[:, start:stop] = MultinomialDiffusion._sample_onehot(uniform, rng_b)
        np.testing.assert_array_equal(state_a, state_b)
        for t in reversed(range(schedule.n_steps)):
            prediction = predictions[t]
            chosen = block.p_sample_into(
                state_a, prediction, t, rng_a, prev_chosen=chosen if pass_prev else None
            )
            state_b = self._seed_reverse_step(state_b, prediction, t, spans, per_block, rng_b)
            np.testing.assert_array_equal(state_a, state_b)
        assert rng_a.integers(0, 1 << 40) == rng_b.integers(0, 1 << 40)


class TestTabDDPMSamplingEquivalence:
    def test_fixed_seed_samples_bit_identical(self, mixed_table):
        config = TabDDPMConfig(
            n_timesteps=14, hidden_dims=(32,), time_embedding_dim=16, epochs=2, batch_size=128
        )
        live = TabDDPMSurrogate(config, seed=4).fit(mixed_table)
        seed = SeedTabDDPMSurrogate(config, seed=4).fit(mixed_table)
        assert live.sample(1_200, seed=42) == seed.sample(1_200, seed=42)
        # Repeated draws from the optimized path stay deterministic.
        assert live.sample(300, seed=9) == live.sample(300, seed=9)


class TestModeSpecificEncoderEquivalence:
    def test_transform_bit_identical(self, mixed_table):
        live = _ModeSpecificEncoder(4, 0).fit(mixed_table)
        seed = SeedModeSpecificEncoder(4, 0).fit(mixed_table)
        assert live.layout == seed.layout
        rng_a, rng_b = np.random.default_rng(13), np.random.default_rng(13)
        np.testing.assert_array_equal(
            live.transform(mixed_table, rng_a), seed.transform(mixed_table, rng_b)
        )
        assert rng_a.integers(0, 1 << 40) == rng_b.integers(0, 1 << 40)

    def test_inverse_transform_bit_identical(self, mixed_table):
        live = _ModeSpecificEncoder(4, 0).fit(mixed_table)
        seed = SeedModeSpecificEncoder(4, 0).fit(mixed_table)
        rng = np.random.default_rng(3)
        soft = rng.random((400, live.n_features))
        hard = live.transform(mixed_table, np.random.default_rng(1))
        for matrix in (soft, hard):
            table_a = live.inverse_transform(matrix, mixed_table.schema, rng)
            table_b = seed.inverse_transform(matrix, mixed_table.schema, rng)
            assert table_a == table_b


class TestCTABGANSamplingEquivalence:
    def test_fixed_seed_samples_bit_identical(self, mixed_table):
        config = CTABGANConfig(
            noise_dim=8, generator_dims=(24,), discriminator_dims=(24,),
            gmm_components=3, epochs=2, batch_size=128,
        )
        live = CTABGANPlusSurrogate(config, seed=6).fit(mixed_table)
        seed = SeedCTABGANSurrogate(config, seed=6).fit(mixed_table)
        assert live.sample(1_100, seed=42) == seed.sample(1_100, seed=42)
        assert live.sample(250, seed=9) == live.sample(250, seed=9)

    def test_refit_rebuilds_block_sampler(self, mixed_table):
        """A refit on a table with a different block layout must not sample
        through a cached sampler built against the previous layout."""
        config = CTABGANConfig(
            noise_dim=8, generator_dims=(24,), discriminator_dims=(24,),
            gmm_components=3, epochs=1, batch_size=128,
        )
        rng = np.random.default_rng(31)
        n = 500
        narrow = Table(
            {"x0": rng.normal(size=n), "cat": rng.choice(["a", "b", "c"], n)},
            TableSchema.from_columns(numerical=["x0"], categorical=["cat"]),
        )
        wide = Table(
            {"x0": rng.normal(size=n), "cat": rng.choice([f"k{i}" for i in range(7)], n)},
            TableSchema.from_columns(numerical=["x0"], categorical=["cat"]),
        )
        model = CTABGANPlusSurrogate(config, seed=6)
        model.fit(narrow)
        model.sample(100, seed=1)  # caches the sampler for the narrow layout
        model.fit(wide)
        refit_sample = model.sample(400, seed=1)
        fresh_sample = CTABGANPlusSurrogate(config, seed=6).fit(wide).sample(400, seed=1)
        assert refit_sample == fresh_sample


class TestFastConditionMode:
    """The relaxed mode: different stream, same distribution."""

    def _sampler_pair(self, table):
        encoder = _ModeSpecificEncoder(3, 0).fit(table)
        layout = encoder.categorical_layout
        live = _ConditionSampler(table, layout, encoder.categorical_encoders)
        seed = SeedConditionSampler(table, layout, encoder.categorical_encoders)
        return live, seed, layout

    def test_exact_mode_still_matches_seed_stream(self, mixed_table):
        live, seed, _layout = self._sampler_pair(mixed_table)
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(10):
            for a, b in zip(live.sample(64, rng_a, mode="exact"), seed.sample(64, rng_b)):
                np.testing.assert_array_equal(a, b)
        assert rng_a.integers(0, 1 << 40) == rng_b.integers(0, 1 << 40)

    def test_fast_mode_rejects_unknown_mode(self, mixed_table):
        live, _seed, _layout = self._sampler_pair(mixed_table)
        with pytest.raises(ValueError, match="unknown condition sampling mode"):
            live.sample(8, np.random.default_rng(0), mode="turbo")

    def test_fast_mode_rows_match_their_condition(self, mixed_table):
        live, _seed, layout = self._sampler_pair(mixed_table)
        encoder = _ModeSpecificEncoder(3, 0).fit(mixed_table)
        rng = np.random.default_rng(4)
        cond, col_choice, cat_choice, row_choice = live.sample(2_000, rng, mode="fast")
        assert cond.shape == (2_000, live.total_width)
        np.testing.assert_array_equal(cond.sum(axis=1), np.ones(2_000))
        for j, (name, _start, _width) in enumerate(layout):
            mask = col_choice == j
            codes = encoder.categorical_encoders[name].transform_codes(mixed_table[name])
            np.testing.assert_array_equal(codes[row_choice[mask]], cat_choice[mask])

    def test_fast_mode_condition_frequencies_chi_squared(self, mixed_table):
        """Drawn (column, category) frequencies match the log-frequency
        weighting the exact mode samples from, per conditioned column."""
        live, _seed, layout = self._sampler_pair(mixed_table)
        rng = np.random.default_rng(12)
        n_draws = 40_000
        _cond, col_choice, cat_choice, _rows = live.sample(n_draws, rng, mode="fast")
        for j, (_name, _start, width) in enumerate(layout):
            mask = col_choice == j
            observed = np.bincount(cat_choice[mask], minlength=width)
            expected = live._cdfs[j].copy()
            expected[1:] -= expected[:-1]
            expected = expected * mask.sum()
            statistic = float(((observed - expected) ** 2 / np.maximum(expected, 1e-9)).sum())
            p_value = float(stats.chi2.sf(statistic, df=width - 1))
            assert p_value > 1e-3, f"column {j}: chi2={statistic:.1f}, p={p_value:.2e}"


class TestFusedExactConditionDraws:
    """The fused exact-mode draw path: fewer RNG calls, identical stream."""

    def _sampler(self, table):
        encoder = _ModeSpecificEncoder(3, 0).fit(table)
        return _ConditionSampler(table, encoder.categorical_layout, encoder.categorical_encoders)

    def test_fused_path_is_taken_on_real_fit(self, mixed_table):
        live = self._sampler(mixed_table)
        assert live._fused_ok, "fit-time screen should accept the mixed table's pools"

    def test_fused_matches_forced_legacy(self, mixed_table):
        live = self._sampler(mixed_table)
        for need_rows in (True, False):
            rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
            live._fused_ok = True
            fused_out = [live.sample(96, rng_a, mode="exact", need_rows=need_rows)
                         for _ in range(6)]
            live._fused_ok = False
            legacy_out = [live.sample(96, rng_b, mode="exact", need_rows=need_rows)
                          for _ in range(6)]
            live._fused_ok = True
            for fo, lo in zip(fused_out, legacy_out):
                for a, b in zip(fo, lo):
                    if a is None:
                        assert b is None
                    else:
                        np.testing.assert_array_equal(a, b)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_singleton_pool_fit_falls_back(self):
        # One category appearing exactly once makes its pool size 1 — numpy
        # consumes nothing for such draws, so the fused layout cannot be
        # pinned and the fit-time screen must route to the legacy calls.
        rng = np.random.default_rng(5)
        n = 300
        cats = rng.choice(["a", "b", "c"], n).astype(object)
        cats[0] = "lonely"  # exactly one row in this category's pool
        table = Table(
            {"x0": rng.normal(size=n), "cat": cats},
            TableSchema.from_columns(numerical=["x0"], categorical=["cat"]),
        )
        live = self._sampler(table)
        assert not live._fused_ok
        seed = SeedConditionSampler(
            table,
            _ModeSpecificEncoder(3, 0).fit(table).categorical_layout,
            _ModeSpecificEncoder(3, 0).fit(table).categorical_encoders,
        )
        rng_a, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        for a, b in zip(live.sample(80, rng_a, mode="exact"), seed.sample(80, rng_b)):
            np.testing.assert_array_equal(a, b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
