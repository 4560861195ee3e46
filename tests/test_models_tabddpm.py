"""Tests for TabDDPM: schedules, Gaussian diffusion, multinomial diffusion,
denoiser and the full surrogate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tabddpm import (
    DiffusionSchedule,
    GaussianDiffusion,
    MLPDenoiser,
    MultinomialDiffusion,
    TabDDPMConfig,
    TabDDPMSurrogate,
    cosine_beta_schedule,
    linear_beta_schedule,
    timestep_embedding,
)
from repro.models.tabddpm.multinomial import MultinomialBlockDiffusion
from repro.nn import Tensor


class TestSchedules:
    def test_linear_schedule_bounds(self):
        betas = linear_beta_schedule(100)
        assert betas.shape == (100,)
        assert betas[0] < betas[-1]
        assert (betas > 0).all() and (betas < 1).all()

    def test_cosine_schedule_bounds(self):
        betas = cosine_beta_schedule(100)
        assert (betas > 0).all() and (betas <= 0.999).all()

    def test_alphas_bar_monotone_decreasing(self):
        sched = DiffusionSchedule.cosine(50)
        assert np.all(np.diff(sched.alphas_bar) < 0)
        assert sched.alphas_bar[-1] < 0.05

    def test_alphas_bar_prev_shifted(self):
        sched = DiffusionSchedule.linear(10)
        assert sched.alphas_bar_prev[0] == 1.0
        np.testing.assert_allclose(sched.alphas_bar_prev[1:], sched.alphas_bar[:-1])

    def test_posterior_variance_nonnegative(self):
        sched = DiffusionSchedule.cosine(30)
        assert (sched.posterior_variance >= 0).all()

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            DiffusionSchedule(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            DiffusionSchedule(np.array([1.5]))
        with pytest.raises(ValueError):
            linear_beta_schedule(0)


class TestGaussianDiffusion:
    def test_q_sample_variance_grows_with_t(self):
        diffusion = GaussianDiffusion(DiffusionSchedule.cosine(100))
        rng = np.random.default_rng(0)
        x0 = np.zeros((5000, 1))
        noise = rng.standard_normal(x0.shape)
        early = diffusion.q_sample(x0, np.full(5000, 5), noise)
        late = diffusion.q_sample(x0, np.full(5000, 95), noise)
        assert late.std() > early.std()

    def test_q_sample_preserves_signal_at_t0(self):
        diffusion = GaussianDiffusion(DiffusionSchedule.cosine(100))
        x0 = np.random.default_rng(1).normal(size=(100, 3))
        noisy = diffusion.q_sample(x0, np.zeros(100, dtype=int), np.zeros_like(x0))
        np.testing.assert_allclose(noisy, x0 * diffusion.schedule.sqrt_alphas_bar[0], rtol=1e-12)

    def test_predict_x0_inverts_q_sample(self):
        diffusion = GaussianDiffusion(DiffusionSchedule.cosine(50))
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(200, 4))
        noise = rng.standard_normal(x0.shape)
        t = rng.integers(0, 50, size=200)
        x_t = diffusion.q_sample(x0, t, noise)
        recovered = diffusion.predict_x0_from_eps(x_t, t, noise)
        np.testing.assert_allclose(recovered, x0, rtol=1e-8, atol=1e-8)

    def test_perfect_eps_model_recovers_distribution(self):
        # With an oracle noise model for x0 = 0, the reverse chain must
        # concentrate around zero.
        diffusion = GaussianDiffusion(DiffusionSchedule.cosine(50))
        rng = np.random.default_rng(3)

        def oracle(x_t, t_vec):
            # For x0 = 0, x_t = sqrt(1 - alpha_bar) * eps, so eps = x_t / sqrt(1-alpha_bar).
            coeff = diffusion.schedule.sqrt_one_minus_alphas_bar[t_vec][:, None]
            return x_t / np.maximum(coeff, 1e-12)

        samples = diffusion.sample(2000, 1, oracle, rng)
        assert abs(samples.mean()) < 0.1
        assert samples.std() < 0.5

    def test_p_sample_step_t0_is_deterministic(self):
        diffusion = GaussianDiffusion(DiffusionSchedule.cosine(10))
        x_t = np.random.default_rng(4).normal(size=(10, 2))
        eps = np.zeros_like(x_t)
        a = diffusion.p_sample_step(x_t, 0, eps, np.random.default_rng(0))
        b = diffusion.p_sample_step(x_t, 0, eps, np.random.default_rng(99))
        np.testing.assert_allclose(a, b)


class TestMultinomialDiffusion:
    def test_q_probs_rows_sum_to_one(self):
        diffusion = MultinomialDiffusion(5, DiffusionSchedule.cosine(40))
        x0 = np.eye(5)[np.random.default_rng(0).integers(0, 5, 100)]
        probs = diffusion.q_probs(x0, np.full(100, 20))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_q_probs_approach_uniform(self):
        diffusion = MultinomialDiffusion(4, DiffusionSchedule.cosine(100))
        x0 = np.eye(4)[[0] * 10]
        late = diffusion.q_probs(x0, np.full(10, 99))
        np.testing.assert_allclose(late, 0.25, atol=0.05)

    def test_q_sample_onehot(self):
        diffusion = MultinomialDiffusion(6, DiffusionSchedule.cosine(30))
        x0 = np.eye(6)[np.random.default_rng(1).integers(0, 6, 50)]
        x_t = diffusion.q_sample(x0, np.full(50, 10), np.random.default_rng(2))
        np.testing.assert_allclose(x_t.sum(axis=1), 1.0)
        assert set(np.unique(x_t)) <= {0.0, 1.0}

    def test_posterior_prefers_x0_at_low_t(self):
        diffusion = MultinomialDiffusion(3, DiffusionSchedule.cosine(100))
        x_t = np.eye(3)[[1]]
        x0_probs = np.array([[1.0, 0.0, 0.0]])
        posterior = diffusion.posterior_probs(x_t, x0_probs, np.array([1]))
        assert posterior[0, 0] > 0.5

    def test_oracle_reverse_chain_recovers_category(self):
        diffusion = MultinomialDiffusion(4, DiffusionSchedule.cosine(60))
        rng = np.random.default_rng(5)
        target = np.array([0.7, 0.2, 0.05, 0.05])

        def oracle(x_t, t_vec):
            return np.tile(target, (x_t.shape[0], 1))

        samples = diffusion.sample(4000, oracle, rng)
        freqs = samples.mean(axis=0)
        np.testing.assert_allclose(freqs, target, atol=0.06)

    def test_invalid_categories(self):
        with pytest.raises(ValueError):
            MultinomialDiffusion(1, DiffusionSchedule.cosine(10))

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_posterior_always_valid_distribution(self, k, t):
        diffusion = MultinomialDiffusion(k, DiffusionSchedule.cosine(31))
        rng = np.random.default_rng(k * 31 + t)
        x_t = np.eye(k)[rng.integers(0, k, 20)]
        x0 = rng.dirichlet(np.ones(k), size=20)
        posterior = diffusion.posterior_probs(x_t, x0, np.full(20, t))
        np.testing.assert_allclose(posterior.sum(axis=1), 1.0, rtol=1e-9)
        assert (posterior >= 0).all()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestBlockDiffusionBits:
    """The bucketed forward noising against the per-block reference."""

    @pytest.mark.parametrize("widths", [[2, 3, 7, 8, 9, 31, 32, 40], [40], [4, 40, 8, 4, 9], [33, 2]])
    def test_q_sample_into_matches_per_block_q_sample(self, widths):
        schedule = DiffusionSchedule.cosine(100)
        spans, col = [], 2
        for width in widths:
            spans.append((col, col + width))
            col += width + 1  # a non-block column between blocks
        rng = np.random.default_rng(len(widths))
        n = 257
        x0 = np.zeros((n, col))
        for start, stop in spans:
            x0[np.arange(n), start + rng.integers(0, stop - start, n)] = 1.0
        t = rng.integers(0, 100, n)
        out = np.full_like(x0, 7.0)
        MultinomialBlockDiffusion(spans, schedule).q_sample_into(out, x0, t, np.random.default_rng(5))
        reference = np.random.default_rng(5)
        for start, stop in spans:
            expected = MultinomialDiffusion(stop - start, schedule).q_sample(x0[:, start:stop], t, reference)
            np.testing.assert_array_equal(out[:, start:stop], expected)
        # Columns outside the blocks are left alone.
        outside = np.setdiff1d(np.arange(col), np.concatenate([np.arange(*s) for s in spans]))
        assert (out[:, outside] == 7.0).all()


class TestDenoiser:
    @pytest.mark.parametrize("n_timesteps", [16, 100, 1000])
    @pytest.mark.parametrize("dim", [16, 64, 65, 128])
    def test_embedding_table_rows_are_timestep_embedding_bits(self, n_timesteps, dim):
        model = MLPDenoiser(3, hidden_dims=(4,), time_embedding_dim=dim, seed=0)
        rng = np.random.default_rng(dim)
        # A small first call, then the full range: the table grows.
        table = model.embedding_table(np.array([3]))
        assert table.shape == (4, dim)
        table = model.embedding_table(np.array([n_timesteps - 1]))
        assert table.shape == (n_timesteps, dim)
        for rows in (1, 2, 255, 4097):
            t = rng.integers(0, n_timesteps, rows)
            assert (_bits(table[t]) == _bits(timestep_embedding(t, dim))).all()
        for t0 in (0, n_timesteps // 2, n_timesteps - 1):
            assert (_bits(table[t0]) == _bits(timestep_embedding(np.array([t0]), dim)[0])).all()
        if dim % 2:
            assert (table[:, -1] == 0.0).all()

    def test_embedding_table_rejects_negative_or_fractional_timesteps(self):
        model = MLPDenoiser(3, hidden_dims=(4,), time_embedding_dim=8, seed=0)
        with pytest.raises(ValueError, match="non-negative integers"):
            model(Tensor(np.zeros((2, 3))), np.array([1, -1]))
        with pytest.raises(ValueError, match="non-negative integers"):
            model(Tensor(np.zeros((2, 3))), np.array([0.5, 1.0]))

    def test_timestep_embedding_shape_and_range(self):
        emb = timestep_embedding(np.array([0, 10, 50]), 32)
        assert emb.shape == (3, 32)
        assert np.abs(emb).max() <= 1.0 + 1e-9

    def test_timestep_embedding_distinguishes_timesteps(self):
        emb = timestep_embedding(np.array([1, 2]), 16)
        assert not np.allclose(emb[0], emb[1])

    def test_odd_dimension_padded(self):
        assert timestep_embedding(np.array([3]), 7).shape == (1, 7)

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            timestep_embedding(np.array([1]), 1)

    def test_denoiser_output_shape(self):
        model = MLPDenoiser(12, hidden_dims=(32,), time_embedding_dim=8, seed=0)
        out = model(Tensor(np.zeros((5, 12))), np.arange(5))
        assert out.shape == (5, 12)

    def test_denoiser_gradients_flow(self):
        model = MLPDenoiser(6, hidden_dims=(16,), time_embedding_dim=8, seed=0)
        out = model(Tensor(np.random.default_rng(0).normal(size=(4, 6))), np.zeros(4, dtype=int))
        (out ** 2).sum().backward()
        assert all(p.grad is not None for p in model.parameters())


class TestTabDDPMSurrogate:
    @pytest.fixture(scope="class")
    def fitted(self, train_table):
        model = TabDDPMSurrogate(TabDDPMConfig.fast(), seed=0)
        model.fit(train_table.head(600))
        return model

    def test_loss_history(self, fitted):
        assert len(fitted.loss_history_) == fitted.config.epochs
        assert fitted.loss_history_[-1] < fitted.loss_history_[0]

    def test_sample_schema_and_size(self, fitted, train_table):
        synth = fitted.sample(150, seed=0)
        assert synth.schema == train_table.schema
        assert len(synth) == 150

    def test_categories_from_training_support(self, fitted, train_table):
        synth = fitted.sample(200, seed=1)
        for column in train_table.schema.categorical:
            assert set(np.unique(synth[column])) <= set(np.unique(train_table[column]))

    def test_numericals_within_training_range(self, fitted, train_table):
        synth = fitted.sample(200, seed=2)
        for column in train_table.schema.numerical:
            assert synth[column].min() >= train_table[column].min() - 1e-6
            assert synth[column].max() <= train_table[column].max() + 1e-6

    def test_deterministic_sampling(self, fitted):
        assert fitted.sample(40, seed=6) == fitted.sample(40, seed=6)

    def test_invalid_schedule_name(self, train_table):
        model = TabDDPMSurrogate(TabDDPMConfig(schedule="bogus", epochs=1, n_timesteps=4), seed=0)
        with pytest.raises(ValueError):
            model.fit(train_table.head(50))

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TabDDPMSurrogate(TabDDPMConfig.fast()).sample(5)
