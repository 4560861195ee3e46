"""Optimized-vs-seed equivalence for the vectorized hot-path engine.

The four optimized kernels (GBDT fit, association matrix, filtering funnel,
grid simulator) must reproduce the outputs of the seed implementations kept in
``benchmarks/seed_baselines.py``:

* GBDT predictions identical (the sibling-subtraction trick can shift
  gradient histograms by a few ulps, but split decisions — and therefore
  predictions — are unchanged on these fixtures),
* association matrices equal within 1e-12,
* identical simulator completion times and pipeline funnels on a fixed-seed
  5k-job workload,
* the Table-I fidelity path: WD bit-identical to the ``np.quantile`` form,
  SMOTE neighbour arrays identical to the one-hot KD-tree search on every
  SMOTE fixture of the suite, and DCR within 1e-12 of the one-hot search,
* MLEF: the codes-native ordered target encoder bit-identical to the seed's
  row-by-row loop, training-row predictions taken from each tree's own
  partition bit-identical to ``predict``, and so diff-MLEF unchanged,
* the PanDA build: the codes-native generator and funnel give the raw
  table, the funnel report and the training table of the string path —
  the same vocabulary tuples, int32 codes and float bytes,
* decoding: the quantile inverse's O(1) knot lookup carries the bits of
  ``np.interp``'s binary search, so exact samples are unchanged.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "benchmarks"))

from seed_baselines import (  # noqa: E402
    SeedFilteringPipeline,
    SeedGaussianMixture,
    SeedGradientBoostingRegressor,
    SeedGridSimulator,
    SeedOrderedTargetEncoder,
    SeedScanDataLocalityBroker,
    SeedScanLeastLoadedBroker,
    SeedWatermarkGridSimulator,
    seed_association_matrix,
    seed_generate_raw,
    seed_kmeans_1d,
    seed_nearest_record_distances,
    seed_quantile_inverse,
    seed_smote_neighbors,
    seed_wasserstein_1d,
)
from test_degenerate_inputs import _degenerate_table, _tiny_table  # noqa: E402
from test_obs_serving import _table as _obs_table  # noqa: E402
from test_serve_faults import _serving_table as _faults_table  # noqa: E402
from test_serve_sharded import _serving_table as _sharded_table  # noqa: E402

from repro.boosting import gbdt  # noqa: E402
from repro.boosting.gbdt import GradientBoostingRegressor  # noqa: E402
from repro.boosting.target_encoding import OrderedTargetEncoder  # noqa: E402
from repro.boosting.tree import FeatureBinner, RegressionTree  # noqa: E402
from repro.metrics.correlation import association_matrix  # noqa: E402
from repro.mixture.gmm import GaussianMixture, kmeans_1d  # noqa: E402
from repro.metrics.distribution import _sorted_quantiles, wasserstein_1d  # noqa: E402
from repro.metrics.mlef import MLEFConfig, diff_mlef  # noqa: E402
from repro.metrics.privacy import nearest_record_distances  # noqa: E402
from repro.models import smote  # noqa: E402
from repro.models.gaussian_copula import GaussianCopulaSurrogate  # noqa: E402
from repro.models.smote import SMOTESurrogate  # noqa: E402
from repro.models.tabddpm.model import TabDDPMConfig, TabDDPMSurrogate  # noqa: E402
from repro.models.tvae import TVAEConfig, TVAESurrogate  # noqa: E402
from repro.panda.generator import GeneratorConfig, PandaWorkloadGenerator  # noqa: E402
from repro.panda.pipeline import FilteringPipeline  # noqa: E402
from repro.panda.records import CATEGORICAL_FEATURES  # noqa: E402
from repro.scheduler.broker import make_broker  # noqa: E402
from repro.scheduler.cluster import GridCluster  # noqa: E402
from repro.scheduler.jobs import jobs_from_table  # noqa: E402
from repro.scheduler.simulator import GridSimulator  # noqa: E402
from repro.serve.api import table_fingerprint  # noqa: E402
from repro.tabular.table import CategoricalColumn, Table  # noqa: E402
from repro.tabular.transforms import GaussianQuantileTransform, _interp_uniform_grid  # noqa: E402


@pytest.fixture(scope="module")
def workload_5k():
    """A fixed-seed generator and a raw stream that filters to ~5k jobs."""
    generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=10_000, n_days=10.0, seed=21))
    return generator, generator.generate_raw()


class TestGBDTEquivalence:
    @pytest.mark.parametrize("subsample", [1.0, 0.7])
    def test_identical_predictions(self, subsample):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(1_500, 6))
        y = (
            2.0 * X[:, 0]
            - X[:, 1] * X[:, 2]
            + np.sin(3.0 * X[:, 3])
            + 0.1 * rng.normal(size=1_500)
        )
        params = dict(
            n_estimators=15, learning_rate=0.3, max_depth=5, max_bins=32,
            subsample=subsample, seed=9,
        )
        seed_model = SeedGradientBoostingRegressor(**params).fit(X, y)
        opt_model = GradientBoostingRegressor(**params).fit(X, y)
        X_query = rng.normal(size=(400, 6))
        np.testing.assert_array_equal(seed_model.predict(X_query), opt_model.predict(X_query))
        np.testing.assert_array_equal(seed_model.train_losses_, opt_model.train_losses_)

    def test_identical_tree_structures(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(800, 4))
        y = X[:, 0] ** 2 + X[:, 1] + 0.05 * rng.normal(size=800)
        seed_model = SeedGradientBoostingRegressor(n_estimators=5, seed=1).fit(X, y)
        opt_model = GradientBoostingRegressor(n_estimators=5, seed=1).fit(X, y)
        for seed_tree, opt_tree in zip(seed_model.trees_, opt_model.trees_):
            assert len(seed_tree.nodes_) == len(opt_tree.nodes_)
            for a, b in zip(seed_tree.nodes_, opt_tree.nodes_):
                assert (a.feature, a.threshold_bin, a.left, a.right) == (
                    b.feature, b.threshold_bin, b.left, b.right,
                )
                assert a.n_samples == b.n_samples
                assert a.value == pytest.approx(b.value, abs=1e-12)


class TestAssociationEquivalence:
    def test_matrix_within_1e12(self, workload_5k):
        generator, raw = workload_5k
        table, _ = FilteringPipeline(generator.sites).run(raw)
        seed_matrix, seed_cols = seed_association_matrix(table)
        opt_matrix, opt_cols = association_matrix(table)
        assert list(seed_cols) == list(opt_cols)
        np.testing.assert_allclose(opt_matrix, seed_matrix, rtol=0.0, atol=1e-12)

    def test_subset_and_edge_cases(self, tiny_table):
        for cols in (["x", "color"], ["color", "status"], ["x", "y"], None):
            seed_matrix, _ = seed_association_matrix(tiny_table, cols)
            opt_matrix, _ = association_matrix(tiny_table, cols)
            np.testing.assert_allclose(opt_matrix, seed_matrix, rtol=0.0, atol=1e-12)


class TestPipelineEquivalence:
    def test_identical_funnel_and_table(self, workload_5k):
        generator, raw = workload_5k
        seed_table, seed_report = SeedFilteringPipeline(generator.sites).run(raw)
        opt_table, opt_report = FilteringPipeline(generator.sites).run(raw)
        assert seed_report.as_rows() == opt_report.as_rows()
        assert seed_table == opt_table  # column-wise array equality


def _assert_identical_tables(expected: Table, actual: Table) -> None:
    """Same schema, vocabulary tuples, int32 codes and float bytes."""
    assert actual.schema == expected.schema
    assert len(actual) == len(expected)
    for name in expected.schema.categorical:
        want, got = expected.categorical_column(name), actual.categorical_column(name)
        assert got.vocab == want.vocab, name
        assert got.codes.dtype == want.codes.dtype == np.int32, name
        np.testing.assert_array_equal(got.codes, want.codes, err_msg=name)
    for name in expected.schema.numerical:
        assert actual[name].dtype == expected[name].dtype == np.float64, name
        assert actual[name].tobytes() == expected[name].tobytes(), name


class TestDatasetBuildEquivalence:
    """The codes-native generator and funnel against the string path.

    The oracle is the seed generator (per-row strings) followed by the seed
    funnel (per-row name parsing); both build their tables from strings, so
    every vocabulary is what ``np.unique`` makes of the rows.
    """

    def _assert_same_build(self, generator, n_jobs=None):
        seed_raw = seed_generate_raw(generator, n_jobs)
        raw = generator.generate_raw(n_jobs)
        _assert_identical_tables(seed_raw, raw)
        seed_table, seed_report = SeedFilteringPipeline(generator.sites).run(seed_raw)
        table, report = FilteringPipeline(generator.sites).run(raw)
        assert report.as_rows() == seed_report.as_rows()
        _assert_identical_tables(seed_table, table)
        return raw, table, report

    @pytest.mark.parametrize("n_jobs", [2_700, 60_000])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identical_build(self, seed, n_jobs):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=n_jobs, seed=seed))
        raw, table, _ = self._assert_same_build(generator)
        assert len(raw) == n_jobs and len(table) > 0

    def test_zero_jobs(self):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=100, seed=4))
        raw, table, _ = self._assert_same_build(generator, 0)
        assert len(raw) == 0 and len(table) == 0
        assert all(raw.vocab(name) == () for name in raw.schema.categorical)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_job(self, seed):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=1, seed=seed))
        _raw, table, _ = self._assert_same_build(generator)
        if seed == 1:  # this job reads a non-DAOD dataset
            assert len(table) == 0
            assert all(table.vocab(name) == () for name in table.schema.categorical)
        else:
            assert len(table) == 1

    def test_nothing_filtered_before_derivation(self):
        generator = PandaWorkloadGenerator(
            GeneratorConfig(
                n_jobs=5_000, seed=5,
                analysis_fraction=1.0, transient_fraction=0.0, daod_fraction=1.0,
            )
        )
        raw, _table, report = self._assert_same_build(generator)
        assert raw.vocab("tasktype") == ("analysis",)
        assert [row["removed"] for row in report.as_rows()] == [0] * 5

    def test_synthesised_site_names(self):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=20_000, seed=6, n_sites=75))
        raw, table, _ = self._assert_same_build(generator)
        assert any(site.startswith("T2_SITE_") for site in table.vocab("computingsite"))
        assert len(raw.vocab("computingsite")) > 60

    def test_one_dataset(self):
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=3_000, seed=7, n_datasets=1))
        raw, _table, _ = self._assert_same_build(generator)
        assert len(raw.vocab("inputdatasetname")) == 1

    def test_repeated_catalog_names_merge(self):
        # Two catalog datasets under one name: the vocabulary merges them as
        # np.unique would, while each keeps its own catalog data type for the
        # CPU-time draw.
        generator = PandaWorkloadGenerator(GeneratorConfig(n_jobs=5_000, seed=8, n_datasets=20))
        names = generator.datasets.name_array
        names[1] = names[0]
        raw, _table, _ = self._assert_same_build(generator)
        assert len(raw.vocab("inputdatasetname")) == 19


class TestSimulatorEquivalence:
    def _assert_same(self, generator, jobs, broker_name, capacity_scale):
        def run(simulator_cls):
            cluster = GridCluster(generator.sites, capacity_scale=capacity_scale, min_capacity=1)
            broker = make_broker(broker_name, cluster, seed=13)
            return simulator_cls(cluster, broker).run(jobs)

        seed_result = run(SeedGridSimulator)
        opt_result = run(GridSimulator)
        assert seed_result.n_completed == opt_result.n_completed == len(jobs)
        assert seed_result.makespan_days == opt_result.makespan_days
        np.testing.assert_array_equal(seed_result.wait_times_hours, opt_result.wait_times_hours)
        assert seed_result.utilization_by_site == opt_result.utilization_by_site
        return opt_result

    @pytest.mark.parametrize("broker_name", ["least_loaded", "random", "data_locality"])
    def test_identical_completions_5k_jobs(self, workload_5k, broker_name):
        generator, raw = workload_5k
        table, _ = FilteringPipeline(generator.sites).run(raw)
        jobs = jobs_from_table(table)
        assert len(jobs) >= 5_000
        self._assert_same(generator, jobs, broker_name, capacity_scale=0.002)

    @pytest.mark.parametrize("broker_name", ["least_loaded", "random", "data_locality"])
    def test_identical_completions_saturated_backlog(self, workload_5k, broker_name):
        # A 40-core cluster under an 800-job burst: the fast-path accounting
        # (free-slot watermark, early pass cut-off) is exercised hard here.
        generator, raw = workload_5k
        table, _ = FilteringPipeline(generator.sites).run(raw)
        jobs = jobs_from_table(table)[:800]
        result = self._assert_same(generator, jobs, broker_name, capacity_scale=1e-9)
        assert result.mean_wait_hours > 0.0  # genuinely contended


class TestBrokerEquivalence:
    """O(log sites) heap brokers vs the seed O(sites) linear scans.

    Runs the seed scan brokers inside the seed watermark simulator against
    the indexed brokers inside the live simulator — placements, and therefore
    every completion time and utilisation number, must be identical.
    """

    def _seed_broker(self, name, cluster):
        if name == "least_loaded":
            return SeedScanLeastLoadedBroker()
        return SeedScanDataLocalityBroker(cluster, seed=13)

    def _assert_same(self, generator, jobs, broker_name, capacity_scale):
        cluster_a = GridCluster(generator.sites, capacity_scale=capacity_scale, min_capacity=1)
        seed_result = SeedWatermarkGridSimulator(
            cluster_a, self._seed_broker(broker_name, cluster_a)
        ).run(jobs)
        cluster_b = GridCluster(generator.sites, capacity_scale=capacity_scale, min_capacity=1)
        opt_result = GridSimulator(cluster_b, make_broker(broker_name, cluster_b, seed=13)).run(jobs)
        assert seed_result.n_completed == opt_result.n_completed == len(jobs)
        assert seed_result.makespan_days == opt_result.makespan_days
        np.testing.assert_array_equal(seed_result.wait_times_hours, opt_result.wait_times_hours)
        assert seed_result.utilization_by_site == opt_result.utilization_by_site
        return opt_result

    @pytest.mark.parametrize("broker_name", ["least_loaded", "data_locality"])
    def test_identical_completions(self, workload_5k, broker_name):
        generator, raw = workload_5k
        table, _ = FilteringPipeline(generator.sites).run(raw)
        jobs = jobs_from_table(table)[:3_000]
        self._assert_same(generator, jobs, broker_name, capacity_scale=0.002)

    @pytest.mark.parametrize("broker_name", ["least_loaded", "data_locality"])
    def test_identical_completions_saturated_backlog(self, workload_5k, broker_name):
        generator, raw = workload_5k
        table, _ = FilteringPipeline(generator.sites).run(raw)
        jobs = jobs_from_table(table)[:800]
        result = self._assert_same(generator, jobs, broker_name, capacity_scale=1e-9)
        assert result.mean_wait_hours > 0.0  # genuinely contended


class TestPrivacyChunking:
    def test_chunked_matches_unchunked(self, tiny_table):
        train = tiny_table.take(np.arange(0, 150))
        synth = tiny_table.take(np.arange(150, 200))
        full = nearest_record_distances(train, synth)
        chunked = nearest_record_distances(train, synth, chunk_size=7)
        np.testing.assert_array_equal(full, chunked)


def _wd_cases():
    rng = np.random.default_rng(41)
    return {
        "n_gt_m": (rng.normal(size=300), rng.normal(0.2, 1.3, size=117)),
        "n_lt_m": (rng.lognormal(size=64), rng.lognormal(0.1, 0.9, size=1_001)),
        "n_is_1": (np.array([2.5]), rng.normal(size=50)),
        "m_is_1": (rng.normal(size=50), np.array([-0.5])),
        "both_1": (np.array([1.0]), np.array([4.0])),
        "integer_duplicates": (
            rng.integers(0, 6, 2_000).astype(float), rng.integers(0, 5, 1_500).astype(float)
        ),
        "constant_real": (np.full(400, 7.25), rng.normal(7.0, 0.5, size=350)),
        "14k_rows": (rng.gamma(2.0, 3.0, 14_000), np.round(rng.gamma(2.1, 3.0, 14_000), 1)),
    }


class TestWassersteinEquivalence:
    """The linear WD must be bit-identical to the seed's ``np.quantile`` form."""

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("case", sorted(_wd_cases()))
    def test_bit_identical(self, case, normalize):
        real, synthetic = _wd_cases()[case]
        assert wasserstein_1d(real, synthetic, normalize=normalize) == seed_wasserstein_1d(
            real, synthetic, normalize=normalize
        )

    @staticmethod
    def _assert_grid_identical(values, size):
        probs = np.linspace(0.0, 1.0, size, endpoint=False) + 0.5 / size
        np.testing.assert_array_equal(_sorted_quantiles(values, probs), np.quantile(values, probs))

    @pytest.mark.parametrize("n, m", [(1, 4), (4, 1), (300, 117), (64, 1_001)])
    def test_quantile_grid_bit_identical(self, n, m):
        # WD's grid has max(n, m) points.
        values = np.sort(np.random.default_rng(n * m).lognormal(1.0, 1.5, n))
        self._assert_grid_identical(values, max(n, m))

    def test_quantile_at_half_virtual_index(self):
        # A 6-point grid on 3 values puts virtual indices at exactly .5,
        # where numpy's lerp switches formula; between these two values the
        # two formulas round differently.
        self._assert_grid_identical(np.array([0.02738500170148095, 8.158535541215322, 9.5]), 6)


class TestSmoteNeighborsEquivalence:
    """SMOTE's kernel neighbours must equal the seed one-hot KD-tree search
    on every SMOTE fixture of the suite, tie order included."""

    @pytest.mark.parametrize("k", [3, 5])
    def test_train_table(self, train_table, k):
        model = SMOTESurrogate(k_neighbors=k).fit(train_table)
        assert np.array_equal(model._neighbors, seed_smote_neighbors(train_table, k))

    def test_train_table_head(self, train_table):
        tiny = train_table.head(4)
        model = SMOTESurrogate(k_neighbors=5).fit(tiny)
        assert np.array_equal(model._neighbors, seed_smote_neighbors(tiny, 5))

    @pytest.mark.parametrize(
        "build, k",
        [
            (_degenerate_table, 3),
            (_tiny_table, 3),
            (_sharded_table, 3),
            (_obs_table, 3),
            (_faults_table, 4),
        ],
        ids=["degenerate", "degenerate_tiny", "serve_sharded", "obs_serving", "serve_faults"],
    )
    def test_suite_tables(self, build, k):
        table = build()
        model = SMOTESurrogate(k_neighbors=k).fit(table)
        assert np.array_equal(model._neighbors, seed_smote_neighbors(table, k))

    @pytest.mark.parametrize("which", ["tiny_table", "serve_faults"])
    def test_tied_rows_take_the_tree_order(self, which, tiny_table, monkeypatch):
        # These two tables hold exact distance ties (rounded and duplicate
        # rows), so the one-hot tie resolver must run for the bytes to match.
        table, k = (tiny_table, 5) if which == "tiny_table" else (_faults_table(), 4)
        tied = []

        def spy(d2):
            rows = real_near_tied(d2)
            tied.append(int(rows.sum()))
            return rows

        real_near_tied = smote._near_tied
        monkeypatch.setattr(smote, "_near_tied", spy)
        model = SMOTESurrogate(k_neighbors=k).fit(table)
        assert tied and tied[0] > 0
        assert np.array_equal(model._neighbors, seed_smote_neighbors(table, k))

    def test_categorical_weight(self, tiny_table):
        for weight in (0.0, 0.3, 2.5):
            model = SMOTESurrogate(k_neighbors=4, categorical_weight=weight).fit(tiny_table)
            expected = seed_smote_neighbors(tiny_table, 4, categorical_weight=weight)
            assert np.array_equal(model._neighbors, expected)


def _with_unseen_category(table: Table, column: str, rows: np.ndarray) -> Table:
    """``table`` with ``rows`` of ``column`` set to a category training never saw."""
    col = table.categorical_column(column)
    codes = col.codes.copy()
    codes[rows] = len(col.vocab)
    return table.with_column(column, CategoricalColumn(codes, col.vocab + ("unseen",)), "categorical")


class TestDCREquivalence:
    """DCR on the kernel must match the one-hot KD-tree within 1e-12."""

    def _assert_close(self, training, synthetic, **kwargs):
        got = nearest_record_distances(training, synthetic, **kwargs)
        want = seed_nearest_record_distances(training, synthetic, **kwargs)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_panda_tables(self, train_table, test_table):
        self._assert_close(train_table, test_table)
        synthetic = SMOTESurrogate(k_neighbors=3).fit(train_table).sample(600, seed=2)
        self._assert_close(train_table, synthetic)

    def test_unseen_category(self, train_table, test_table):
        synthetic = _with_unseen_category(test_table, "computingsite", np.arange(0, 200, 3))
        self._assert_close(train_table, synthetic)

    def test_columns_subset_and_chunks(self, train_table, test_table):
        columns = ["ninputdatafiles", "jobstatus", "workload", "project"]
        self._assert_close(train_table, test_table, columns=columns)
        self._assert_close(train_table, test_table, chunk_size=7)
        self._assert_close(train_table, test_table.head(50), columns=["jobstatus"], chunk_size=7)
        self._assert_close(train_table, test_table.head(50), columns=["workload"])

    def test_suite_tables(self, tiny_table):
        self._assert_close(tiny_table.take(np.arange(0, 150)), tiny_table.take(np.arange(150, 200)))
        table = _faults_table()
        self._assert_close(table.head(300), table.take(np.arange(300, 400)))


def _gmm_test_columns(n=4_000, seed=29):
    """Column shapes spanning both GMM code paths: duplicate-compressed
    (counts, rounded values, discrete grids) and the direct fallback
    (continuous), plus the degenerate edges."""
    rng = np.random.default_rng(seed)
    half = n // 2
    return {
        "counts": rng.poisson(30, n).astype(np.float64),
        "rounded_lognormal": np.round(rng.lognormal(1.0, 0.8, n), 2),
        "grid": rng.choice(np.round(np.linspace(0.1, 50.0, 257), 3), n),
        "rounded_bimodal": np.round(
            np.concatenate([rng.normal(-4.0, 0.5, half), rng.normal(4.0, 0.5, n - half)]), 1
        ),
        "continuous": np.concatenate([rng.normal(-2.0, 1.0, half), rng.lognormal(0.5, 0.7, n - half)]),
        "tiny": rng.normal(size=40),
        "constant": np.full(200, 7.5),
        "three_values": rng.choice([1.0, 2.0, 7.25], n),
    }


class TestGaussianMixtureEquivalence:
    """The duplicate-compressed GMM must be bit-identical to the seed EM."""

    @pytest.mark.parametrize("column", sorted(_gmm_test_columns()))
    def test_fit_parameters_bit_identical(self, column):
        x = _gmm_test_columns()[column]
        opt = GaussianMixture(8, seed=0).fit(x)
        ref = SeedGaussianMixture(8, seed=0).fit(x)
        np.testing.assert_array_equal(opt.params_.weights, ref.params_.weights)
        np.testing.assert_array_equal(opt.params_.means, ref.params_.means)
        np.testing.assert_array_equal(opt.params_.stds, ref.params_.stds)
        assert opt.log_likelihood_ == ref.log_likelihood_
        assert opt.n_iter_ == ref.n_iter_

    @pytest.mark.parametrize("column", ["counts", "rounded_lognormal", "continuous"])
    def test_kmeans_centres_bit_identical(self, column):
        x = _gmm_test_columns()[column]
        for k in (1, 3, 8):
            np.testing.assert_array_equal(kmeans_1d(x, k), seed_kmeans_1d(x, k))

    @pytest.mark.parametrize("column", ["counts", "rounded_lognormal", "continuous"])
    def test_inference_bit_identical(self, column):
        x = _gmm_test_columns()[column]
        opt = GaussianMixture(6, seed=0).fit(x)
        ref = SeedGaussianMixture(6, seed=0).fit(x)
        np.testing.assert_array_equal(opt.responsibilities(x), ref.responsibilities(x))
        comp_opt = opt.sample_component(x, np.random.default_rng(17))
        comp_ref = ref.sample_component(x, np.random.default_rng(17))
        np.testing.assert_array_equal(comp_opt, comp_ref)
        np.testing.assert_array_equal(
            opt.normalize(x, comp_opt), ref.normalize(x, comp_ref)
        )
        assert opt.log_likelihood(x) == SeedGaussianMixture._logsumexp(
            ref._log_prob_components(x, ref.params_)
        ).mean()


def _assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _assert_encoders_agree(categories, target, *, seed, held_out=None, smoothing=1.0):
    """Fit the codes-native encoder on ``categories`` and the seed encoder on
    their decoded strings; every output must carry the same bits."""
    strings = np.asarray(categories)
    opt = OrderedTargetEncoder(smoothing, seed=seed)
    ref = SeedOrderedTargetEncoder(smoothing, seed=seed)
    _assert_same_bits(
        opt.fit_transform_ordered(categories, target), ref.fit_transform_ordered(strings, target)
    )
    assert opt.prior_ == ref.prior_
    assert opt.statistics_ == ref.statistics_
    for query in (categories,) if held_out is None else (categories, held_out):
        _assert_same_bits(opt.transform(query), ref.transform(np.asarray(query)))


class TestTargetEncodingEquivalence:
    """The codes-native ordered target encoder against the seed's row loop."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", ["train_table", "workload_5k"])
    def test_panda_columns_bit_identical(self, size, seed, request):
        if size == "train_table":
            table, held_out = request.getfixturevalue("train_table"), request.getfixturevalue("test_table")
        else:
            generator, raw = request.getfixturevalue("workload_5k")
            table, _ = FilteringPipeline(generator.sites).run(raw)
            table, held_out = table.take(np.arange(4_000)), table.take(np.arange(4_000, len(table)))
        target = np.log(np.maximum(np.asarray(table["workload"]), 1e-12))
        for name in CATEGORICAL_FEATURES:
            _assert_encoders_agree(
                table.categorical_column(name), target, seed=seed,
                held_out=held_out.categorical_column(name),
            )

    def test_one_row(self):
        _assert_encoders_agree(CategoricalColumn.from_values(["a"]), np.array([2.5]), seed=4)

    def test_one_category(self):
        target = np.random.default_rng(0).normal(size=50)
        _assert_encoders_agree(CategoricalColumn.from_values(["x"] * 50), target, seed=4)

    def test_vocabulary_entry_no_row_uses(self):
        rng = np.random.default_rng(1)
        codes = rng.choice([0, 2, 3], size=300)
        column = CategoricalColumn(codes, ("a", "b", "c", "d"))
        held_out = CategoricalColumn([1, 0, 1, 3], ("a", "b", "c", "d"))
        _assert_encoders_agree(column, rng.normal(size=300), seed=5, held_out=held_out)
        # An unsorted vocabulary: the codes' order is not the strings' order.
        column = CategoricalColumn(codes, ("d", "b", "a", "c"))
        _assert_encoders_agree(column, rng.normal(size=300), seed=5)

    def test_test_only_categories(self):
        rng = np.random.default_rng(2)
        column = CategoricalColumn.from_values(rng.choice(["a", "b", "c"], size=200))
        held_out = CategoricalColumn.from_values(["zz", "a", "unseen", "c", "zz"])
        _assert_encoders_agree(column, rng.normal(size=200), seed=6, held_out=held_out)

    @pytest.mark.parametrize("smoothing", [1.0, 0.5, 10.0])
    def test_string_array_input(self, smoothing):
        rng = np.random.default_rng(3)
        strings = rng.choice(["site-%d" % i for i in range(30)], size=1_000)
        _assert_encoders_agree(
            strings, rng.gamma(2.0, size=1_000), seed=7, smoothing=smoothing,
            held_out=np.array(["site-3", "site-99", "site-0"]),
        )


def _fit_then_predict(monkeypatch):
    """Make ``RegressionTree.fit_predict`` fit and then route every row
    through ``predict``, as the boosting loop did per tree."""
    original = RegressionTree.fit_predict

    def fit_then_predict(self, binned, residuals, n_bins, *, flat_index=None):
        original(self, binned, residuals, n_bins, flat_index=flat_index)
        return self.predict(binned)

    monkeypatch.setattr(RegressionTree, "fit_predict", fit_then_predict)


class TestTrainingRowPredictions:
    """Predictions scattered from the fit's partition against ``predict``."""

    @pytest.mark.parametrize("max_depth, min_samples_leaf", [(1, 1), (4, 20), (10, 2)])
    def test_tree_fit_predict_equals_predict(self, max_depth, min_samples_leaf):
        rng = np.random.default_rng(max_depth)
        X = rng.normal(size=(2_000, 5))
        X[:, 4] = np.round(X[:, 4])  # heavy ties
        residuals = X[:, 0] - 2.0 * X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=2_000)
        binner = FeatureBinner(max_bins=32).fit(X)
        binned = binner.transform(X)
        n_bins = [binner.n_bins(j) for j in range(X.shape[1])]
        tree = RegressionTree(max_depth=max_depth, min_samples_leaf=min_samples_leaf)
        _assert_same_bits(tree.fit_predict(binned, residuals, n_bins), tree.predict(binned))
        assert tree.n_leaves > 1
        constant = RegressionTree(max_depth=max_depth)
        fitted = constant.fit_predict(binned, np.full(2_000, 0.25), n_bins)
        _assert_same_bits(fitted, constant.predict(binned))
        assert constant.n_leaves == 1

    def test_boosted_trees_and_losses_unchanged(self, monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(1_200, 4))
        y = np.sin(2.0 * X[:, 0]) + X[:, 1] * X[:, 3] + 0.1 * rng.normal(size=1_200)
        params = dict(n_estimators=12, learning_rate=0.5, max_depth=6, min_samples_leaf=5, seed=2)
        opt = GradientBoostingRegressor(**params).fit(X, y)
        _fit_then_predict(monkeypatch)
        ref = GradientBoostingRegressor(**params).fit(X, y)
        assert opt.train_losses_ == ref.train_losses_
        for opt_tree, ref_tree in zip(opt.trees_, ref.trees_):
            assert opt_tree.nodes_ == ref_tree.nodes_  # structure, n_samples, values
        _assert_same_bits(opt.predict(X), ref.predict(X))

    def test_diff_mlef_unchanged(self, train_table, test_table, monkeypatch):
        synthetic = SMOTESurrogate(k_neighbors=3).fit(train_table).sample(800, seed=2)
        config = MLEFConfig(n_estimators=15)
        got = diff_mlef(train_table, synthetic, test_table, config, seed=17)
        monkeypatch.setattr(gbdt, "OrderedTargetEncoder", SeedOrderedTargetEncoder)
        _fit_then_predict(monkeypatch)
        assert diff_mlef(train_table, synthetic, test_table, config, seed=17) == got


def _quantile_transforms():
    """Fitted transforms on grids of 1, 2, 3, 41, 999 and 1,000 knots, each
    once on continuous data and once on tied data (plateaus in the
    quantiles).  At the knots and their one-ulp neighbours,
    ``floor(p * (n - 1))`` lands one interval low somewhere on every grid of
    two or more points, and one interval high 19 times on the 41-point
    grid, so both bracket corrections are exercised."""
    rng = np.random.default_rng(29)
    cases = {}
    for size in (1, 2, 3, 41, 999, 5_000):
        knots = min(size, 1_000)
        cases[f"{knots}-knots"] = rng.lognormal(1.0, 1.5, size)
        cases[f"{knots}-knots-tied"] = rng.integers(0, 4, size).astype(np.float64)
    return {name: GaussianQuantileTransform().fit(column) for name, column in cases.items()}


class TestQuantileInverseEquivalence:
    """The O(1) knot lookup against ``np.interp``'s binary search, bit for bit.

    Twelve grids of 200k uniform probabilities each, plus 0, 1, NaN and
    every knot with both of its one-ulp neighbours: over two million values.
    """

    @pytest.mark.parametrize("name", sorted(_quantile_transforms()))
    def test_probabilities_bit_identical(self, name):
        tf = _quantile_transforms()[name]
        knots = tf.references_
        assert knots.size == int(name.split("-")[0])
        probs = np.concatenate(
            [
                [0.0, 1.0, np.nan],
                knots,
                np.nextafter(knots, -np.inf),
                np.nextafter(knots, np.inf),
                np.random.default_rng(knots.size).random(200_000),
            ]
        )
        probs = np.clip(probs, 0.0, 1.0)
        _assert_same_bits(
            _interp_uniform_grid(probs, knots, tf.quantiles_),
            np.interp(probs, knots, tf.quantiles_),
        )

    @pytest.mark.parametrize("n", [2, 3, 41, 1_000])
    def test_non_finite_quantiles_and_nan_payloads(self, n):
        # Infinite end quantiles make inf - inf slopes (numpy's retry and
        # flat-interval branches), a NaN quantile poisons its intervals, and
        # NaN inputs must come back with their own payload.
        knots = np.linspace(0.0, 1.0, n)
        rng = np.random.default_rng(n)
        quantiles = np.sort(rng.normal(size=n) * 1e307)
        quantiles[0], quantiles[-1] = -np.inf, np.inf
        poisoned = quantiles.copy()
        poisoned[n // 2] = np.nan
        payloads = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64)
        probs = np.concatenate(
            [[0.0, 1.0], payloads.view(np.float64), knots, rng.random(10_000)]
        )
        for fp in (quantiles, poisoned, np.full(n, np.inf)):
            with np.errstate(all="ignore"):
                want = np.interp(probs, knots, fp)
            _assert_same_bits(_interp_uniform_grid(probs, knots, fp), want)

    @pytest.mark.parametrize("name", sorted(_quantile_transforms()))
    def test_inverse_transform_bit_identical(self, name):
        tf = _quantile_transforms()[name]
        latents = np.concatenate(
            [
                [0.0, -0.0, np.inf, -np.inf, np.nan, 40.0, -40.0],
                np.random.default_rng(3).normal(scale=2.5, size=50_000),
            ]
        )
        for values in (latents, latents[:1_000].reshape(40, 25), np.empty(0), 0.3, np.nan):
            got, want = tf.inverse_transform(values), seed_quantile_inverse(tf, values)
            assert np.shape(got) == np.shape(want)
            _assert_same_bits(got, want)

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: TVAESurrogate(TVAEConfig.fast(), seed=0),
            lambda: TabDDPMSurrogate(TabDDPMConfig.fast(), seed=0),
            lambda: SMOTESurrogate(k_neighbors=3),
            lambda: GaussianCopulaSurrogate(),
        ],
        ids=["tvae", "tabddpm", "smote", "gaussian_copula"],
    )
    def test_exact_samples_unchanged(self, factory, train_table, monkeypatch):
        model = factory().fit(train_table)
        got = model.sample(3000, seed=7)
        monkeypatch.setattr(GaussianQuantileTransform, "inverse_transform", seed_quantile_inverse)
        assert table_fingerprint(got) == table_fingerprint(model.sample(3000, seed=7))
