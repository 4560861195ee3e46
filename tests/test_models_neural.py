"""Tests for the neural surrogates: TVAE and CTABGAN+ (plus the seed
normalisation shared with TabDDPM).

Training budgets are intentionally tiny (``*.fast()`` configs) — the goal is
to verify the training loop runs, losses move, and the sampling path produces
schema-correct, plausible tables, not to reach paper-level fidelity.
"""

import numpy as np
import pytest

from repro.models.ctabgan import CTABGANConfig, CTABGANPlusSurrogate, _ConditionSampler, _ModeSpecificEncoder
from repro.models.tabddpm import TabDDPMConfig, TabDDPMSurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate


@pytest.fixture(scope="module")
def small_train(train_table):
    return train_table.head(600)


class TestTVAE:
    @pytest.fixture(scope="class")
    def fitted(self, train_table):
        model = TVAESurrogate(TVAEConfig.fast(), seed=0)
        model.fit(train_table.head(600))
        return model

    def test_loss_history_recorded(self, fitted):
        assert len(fitted.loss_history_) == fitted.config.epochs
        assert all(np.isfinite(v) for v in fitted.loss_history_)

    def test_loss_decreases(self, fitted):
        assert fitted.loss_history_[-1] < fitted.loss_history_[0]

    def test_sample_schema(self, fitted, train_table):
        synth = fitted.sample(200, seed=1)
        assert synth.schema == train_table.schema
        assert len(synth) == 200

    def test_sample_deterministic(self, fitted):
        assert fitted.sample(50, seed=3) == fitted.sample(50, seed=3)

    def test_categories_from_training_support(self, fitted, train_table):
        synth = fitted.sample(300, seed=2)
        for column in train_table.schema.categorical:
            assert set(np.unique(synth[column])) <= set(np.unique(train_table[column]))

    def test_numericals_within_quantile_range(self, fitted, train_table):
        synth = fitted.sample(300, seed=4)
        for column in train_table.schema.numerical:
            assert synth[column].min() >= train_table[column].min() - 1e-6
            assert synth[column].max() <= train_table[column].max() + 1e-6

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            TVAESurrogate(TVAEConfig.fast()).sample(5)

    def test_category_diversity(self, fitted):
        synth = fitted.sample(300, seed=5)
        # The sampler draws from the decoder softmax, so at least two
        # computing sites should appear even after a tiny training run.
        assert synth.nunique("computingsite") >= 2


class TestModeSpecificEncoder:
    def test_roundtrip(self, small_train):
        enc = _ModeSpecificEncoder(gmm_components=4, seed=0).fit(small_train)
        rng = np.random.default_rng(0)
        encoded = enc.transform(small_train, rng)
        assert encoded.shape[0] == len(small_train)
        assert encoded.shape[1] == enc.n_features
        decoded = enc.inverse_transform(encoded, small_train.schema, rng)
        assert decoded.schema == small_train.schema
        for column in small_train.schema.categorical:
            np.testing.assert_array_equal(decoded[column], small_train[column])

    def test_numerical_blocks_have_alpha_and_modes(self, small_train):
        enc = _ModeSpecificEncoder(gmm_components=4, seed=0).fit(small_train)
        for name, kind, start, width in enc.layout:
            if kind == "numerical":
                assert width >= 2  # alpha + at least one mode indicator

    def test_categorical_layout(self, small_train):
        enc = _ModeSpecificEncoder(gmm_components=3, seed=0).fit(small_train)
        names = [name for name, _, _ in enc.categorical_layout]
        assert names == small_train.schema.categorical


class TestConditionSampler:
    def test_condition_vector_one_hot(self, small_train):
        enc = _ModeSpecificEncoder(gmm_components=3, seed=0).fit(small_train)
        sampler = _ConditionSampler(small_train, enc.categorical_layout, enc.categorical_encoders)
        cond, col_choice, cat_choice, rows = sampler.sample(64, np.random.default_rng(0))
        assert cond.shape == (64, sampler.total_width)
        np.testing.assert_allclose(cond.sum(axis=1), 1.0)
        assert rows.min() >= 0 and rows.max() < len(small_train)

    def test_matching_rows_actually_match(self, small_train):
        enc = _ModeSpecificEncoder(gmm_components=3, seed=0).fit(small_train)
        sampler = _ConditionSampler(small_train, enc.categorical_layout, enc.categorical_encoders)
        cond, col_choice, cat_choice, rows = sampler.sample(128, np.random.default_rng(1))
        layout = enc.categorical_layout
        for i in range(20):
            name, _start, _width = layout[col_choice[i]]
            encoder = enc.categorical_encoders[name]
            expected_category = encoder.categories_[cat_choice[i]]
            assert small_train[name][rows[i]] == expected_category


class TestCTABGAN:
    @pytest.fixture(scope="class")
    def fitted(self, train_table):
        model = CTABGANPlusSurrogate(CTABGANConfig.fast(), seed=0)
        model.fit(train_table.head(600))
        return model

    def test_history_recorded(self, fitted):
        assert len(fitted.loss_history_) == fitted.config.epochs
        assert all(np.isfinite(h["d_loss"]) and np.isfinite(h["g_loss"]) for h in fitted.loss_history_)

    def test_sample_schema(self, fitted, train_table):
        synth = fitted.sample(150, seed=0)
        assert synth.schema == train_table.schema
        assert len(synth) == 150

    def test_sample_in_batches(self, fitted):
        # Requesting more than one batch exercises the batching loop.
        synth = fitted.sample(fitted.config.batch_size + 37, seed=1)
        assert len(synth) == fitted.config.batch_size + 37

    def test_categories_from_training_support(self, fitted, train_table):
        synth = fitted.sample(200, seed=2)
        for column in train_table.schema.categorical:
            assert set(np.unique(synth[column])) <= set(np.unique(train_table[column]))

    def test_numerical_values_finite(self, fitted):
        synth = fitted.sample(200, seed=3)
        for column in synth.schema.numerical:
            assert np.isfinite(np.asarray(synth[column])).all()

    def test_sample_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CTABGANPlusSurrogate(CTABGANConfig.fast()).sample(5)

    def test_deterministic_sampling(self, fitted):
        assert fitted.sample(60, seed=7) == fitted.sample(60, seed=7)


_NEURAL_MODELS = {
    "tvae": lambda seed: TVAESurrogate(TVAEConfig.fast(), seed=seed),
    "ctabgan": lambda seed: CTABGANPlusSurrogate(CTABGANConfig.fast(), seed=seed),
    "tabddpm": lambda seed: TabDDPMSurrogate(TabDDPMConfig.fast(), seed=seed),
}


class TestSeedNormalisation:
    """A numpy integer seeds a neural surrogate exactly like the same int."""

    @pytest.mark.parametrize("name", sorted(_NEURAL_MODELS))
    def test_numpy_integer_seed_matches_int(self, name, small_train):
        make = _NEURAL_MODELS[name]
        plain = make(3).fit(small_train)
        numpy_int = make(np.int64(3)).fit(small_train)
        assert numpy_int.loss_history_ == plain.loss_history_
        assert numpy_int.sample(120, seed=1) == plain.sample(120, seed=1)

    @pytest.mark.parametrize("name", sorted(_NEURAL_MODELS))
    def test_generator_seed_rejected(self, name):
        with pytest.raises(TypeError):
            _NEURAL_MODELS[name](np.random.default_rng(3))
        with pytest.raises(TypeError):
            _NEURAL_MODELS[name](np.random.SeedSequence(3))
