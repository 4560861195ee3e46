"""Degenerate-input hardening across the surrogates and the metrics layer.

Production serving sees pathological tables: constant numerical columns,
single-category columns, tiny training sets, empty sample requests.  Every
surrogate (and the metric layer on top) must stay *finite* and
*RuntimeWarning-free* on them — the module-level filter turns any
RuntimeWarning (NaN arithmetic, zero divisions, overflow) into a failure.

The headline regression here is the Gaussian-copula NaN bug: a constant
numerical column produced a zero-variance latent, ``np.corrcoef`` filled its
row with NaN, and ``multivariate_normal(..., method="cholesky")`` turned every
sample into NaN.
"""

import numpy as np
import pytest

from repro.analysis.temporal import compare_temporal_profiles, weekly_profile
from repro.metrics.correlation import association_matrix, diff_corr
from repro.metrics.distribution import (
    jensen_shannon_divergence,
    mean_jsd,
    mean_wasserstein,
    wasserstein_1d,
)
from repro.models.ctabgan import CTABGANConfig, CTABGANPlusSurrogate
from repro.models.gaussian_copula import GaussianCopulaSurrogate
from repro.models.smote import SMOTESurrogate
from repro.models.tabddpm.model import TabDDPMConfig, TabDDPMSurrogate
from repro.models.tvae import TVAEConfig, TVAESurrogate
from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from repro.tabular.transforms import GaussianQuantileTransform

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

CONSTANT_VALUE = 3.25


def _degenerate_table(n=220, seed=5) -> Table:
    """Mixed table with a constant numerical and a single-category column."""
    rng = np.random.default_rng(seed)
    data = {
        "x": rng.lognormal(1.0, 0.6, n),
        "const": np.full(n, CONSTANT_VALUE),
        "cat": rng.choice(["a", "b", "c"], n),
        "single": np.array(["only"] * n),
    }
    return Table(
        data,
        TableSchema.from_columns(numerical=["x", "const"], categorical=["cat", "single"]),
    )


def _tiny_table() -> Table:
    return Table(
        {
            "x": np.array([1.0, 2.0, 3.0]),
            "const": np.full(3, CONSTANT_VALUE),
            "cat": np.array(["a", "b", "a"]),
        },
        TableSchema.from_columns(numerical=["x", "const"], categorical=["cat"]),
    )


def _numerical_table(n=300, seed=8) -> Table:
    """No categorical column at all: nothing for CTABGAN+ to condition on."""
    rng = np.random.default_rng(seed)
    return Table(
        {"x": rng.lognormal(1.0, 0.6, n), "y": rng.normal(size=n) * 3.0},
        TableSchema.from_columns(numerical=["x", "y"]),
    )


def _make_surrogate(name):
    if name == "tvae":
        return TVAESurrogate(TVAEConfig.fast(), seed=0)
    if name == "ctabgan":
        return CTABGANPlusSurrogate(CTABGANConfig.fast(), seed=0)
    if name == "tabddpm":
        return TabDDPMSurrogate(TabDDPMConfig.fast(), seed=0)
    if name == "smote":
        return SMOTESurrogate(k_neighbors=3)
    if name == "copula":
        return GaussianCopulaSurrogate()
    raise AssertionError(name)


SURROGATES = ["tvae", "ctabgan", "tabddpm", "smote", "copula"]


@pytest.fixture(scope="module")
def degenerate_table():
    return _degenerate_table()


@pytest.fixture(scope="module")
def fitted(degenerate_table):
    """All five surrogates fitted once on the degenerate table."""
    return {name: _make_surrogate(name).fit(degenerate_table) for name in SURROGATES}


class TestCopulaConstantColumn:
    """The confirmed NaN-copula bug: constant column → all-NaN samples."""

    def test_fit_sample_finite_and_exact(self, degenerate_table):
        model = GaussianCopulaSurrogate().fit(degenerate_table)
        sampled = model.sample(400, seed=1)
        assert np.isfinite(sampled["x"]).all()
        assert np.isfinite(sampled["const"]).all()
        # Constants invert exactly, not approximately.
        np.testing.assert_array_equal(sampled["const"], np.full(400, CONSTANT_VALUE))
        assert set(sampled["single"]) == {"only"}

    def test_correlation_matrix_repaired(self, degenerate_table):
        model = GaussianCopulaSurrogate().fit(degenerate_table)
        corr = model._correlation_
        assert np.isfinite(corr).all()
        # The degenerate column is modelled as independent: zero off-diagonal.
        const_idx = degenerate_table.columns.index("const")
        off = np.delete(corr[const_idx], const_idx)
        np.testing.assert_array_equal(off, np.zeros(off.size))

    def test_all_constant_table(self):
        n = 60
        table = Table(
            {"a": np.full(n, 1.5), "b": np.full(n, -2.0)},
            TableSchema.from_columns(numerical=["a", "b"]),
        )
        model = GaussianCopulaSurrogate().fit(table)
        sampled = model.sample(30, seed=3)
        np.testing.assert_array_equal(sampled["a"], np.full(30, 1.5))
        np.testing.assert_array_equal(sampled["b"], np.full(30, -2.0))


@pytest.mark.parametrize("name", SURROGATES)
class TestAllSurrogates:
    def test_degenerate_columns_sample_finite(self, fitted, name, degenerate_table):
        model = fitted[name]
        for mode in ("exact", "fast"):
            sampled = model.sample(64, seed=2, sampling_mode=mode)
            assert len(sampled) == 64
            assert sampled.schema == degenerate_table.schema
            for column in ("x", "const"):
                assert np.isfinite(sampled[column]).all(), (name, mode, column)
            assert set(sampled["single"]) == {"only"}, (name, mode)
            assert set(sampled["cat"]) <= {"a", "b", "c"}, (name, mode)

    def test_sample_zero_rows(self, fitted, name):
        for mode in ("exact", "fast"):
            sampled = fitted[name].sample(0, seed=1, sampling_mode=mode)
            assert len(sampled) == 0
            assert sampled.columns == fitted[name].schema_.names

    def test_three_row_training_table(self, name):
        model = _make_surrogate(name).fit(_tiny_table())
        sampled = model.sample(9, seed=4)
        assert len(sampled) == 9
        assert np.isfinite(sampled["x"]).all()
        assert np.isfinite(sampled["const"]).all()

    def test_numerical_only_table(self, name):
        table = _numerical_table()
        model = _make_surrogate(name).fit(table)
        for mode in ("exact", "fast"):
            sampled = model.sample(50, seed=3, sampling_mode=mode)
            assert len(sampled) == 50
            assert sampled.schema == table.schema
            for column in ("x", "y"):
                assert np.isfinite(sampled[column]).all(), (name, mode, column)
            assert sampled == model.sample(50, seed=3, sampling_mode=mode), (name, mode)

    def test_save_load_round_trip(self, fitted, name, tmp_path):
        model = fitted[name]
        path = tmp_path / f"{name}.pkl"
        model.save(path)
        loaded = type(model).load(path)
        assert loaded.sample(40, seed=11) == model.sample(40, seed=11)
        # The relaxed mode must survive the round trip too (packed serving
        # caches are rebuilt, not stale-loaded).
        fast = loaded.sample(25, seed=12, sampling_mode="fast")
        assert len(fast) == 25

    def test_negative_request_rejected(self, fitted, name):
        with pytest.raises(ValueError, match="negative"):
            fitted[name].sample(-1, seed=0)


class TestTabDDPMSingleCategory:
    def test_width_one_blocks_are_carried_as_constants(self, fitted):
        model = fitted["tabddpm"]
        # The single-category block is excluded from the diffusion…
        assert all(width >= 2 for width in model._block_diffusion.widths)
        assert model._constant_onehot_indices.size == 1
        # …and decoded back to its category in both modes.
        for mode in ("exact", "fast"):
            sampled = model.sample(30, seed=6, sampling_mode=mode)
            assert set(sampled["single"]) == {"only"}


class TestQuantileTransformDegenerate:
    def test_subnormal_values_stay_finite(self):
        # Regression: knots separated by subnormal gaps overflow np.interp's
        # slope and used to leave NaN at the knots.
        x = np.array([0.0, 4.9406564584124654e-324] + [2.2250738585072014e-311] * 30)
        tf = GaussianQuantileTransform(n_quantiles=100).fit(x)
        assert np.isfinite(tf.transform(x)).all()

    def test_constant_column_round_trips_exactly(self):
        x = np.full(50, CONSTANT_VALUE)
        tf = GaussianQuantileTransform().fit(x)
        latent = tf.transform(x)
        assert np.isfinite(latent).all()
        np.testing.assert_array_equal(tf.inverse_transform(latent), x)
        # Arbitrary latents must still invert to the constant.
        np.testing.assert_array_equal(
            tf.inverse_transform(np.array([-3.0, 0.0, 5.0])), np.full(3, CONSTANT_VALUE)
        )


class TestMetricsDegenerate:
    def test_association_matrix_constant_columns(self, degenerate_table):
        matrix, _cols = association_matrix(degenerate_table)
        assert np.isfinite(matrix).all()

    def test_diff_corr_and_distribution_metrics(self, degenerate_table):
        other = _degenerate_table(seed=9)
        assert np.isfinite(diff_corr(degenerate_table, other))
        mean_wd, _ = mean_wasserstein(degenerate_table, other)
        assert np.isfinite(mean_wd)
        mean_j, _ = mean_jsd(degenerate_table, other)
        assert np.isfinite(mean_j)

    def test_constant_column_wasserstein_is_zero(self):
        const = np.full(40, CONSTANT_VALUE)
        assert wasserstein_1d(const, const) == 0.0

    def test_single_category_jsd_is_zero(self):
        a = np.array(["only"] * 30)
        assert jensen_shannon_divergence(a, a) == 0.0

    def test_weekly_corr_flat_profile_defined(self):
        # A perfectly regular stream folds onto a constant weekly profile —
        # zero variance, for which np.corrcoef would return NaN.
        flat_times = np.arange(0.005, 28.0, 0.25)
        profile = weekly_profile(flat_times, bins_per_day=4)
        assert profile.std() == 0.0
        schema = TableSchema.from_columns(numerical=["creationtime"])
        real = Table({"creationtime": flat_times}, schema)
        rng = np.random.default_rng(0)
        synth = Table({"creationtime": rng.uniform(0.0, 28.0, 600)}, schema)
        for a, b in ((real, synth), (synth, real), (real, real)):
            result = compare_temporal_profiles(a, b)
            assert result["weekly_profile_correlation"] == 0.0
            assert np.isfinite(result["weekend_suppression_gap"])
