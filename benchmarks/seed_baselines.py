"""Seed (pre-optimization) implementations of the hot-path kernels.

These are verbatim ports of the implementations the repository shipped with
before the perf PRs: the per-feature histogram loop of the GBDT tree, the
row-by-row ordered target encoder of MLEF, the O(d^2) per-pair association
matrix, the per-row string columns of the PanDA raw generator and the
row-by-row dataset-name parse of the filtering pipeline, the
per-event backlog rescan of the grid simulator, the
unfused per-block deep-model training loops (TVAE / CTABGAN+ / TabDDPM with
allocation-per-parameter Adam/SGD steps), the O(sites) linear-scan brokers
and the watermark simulator that recomputed its free-core maximum with a
full pass per allocation, the Table-I fidelity path's ``np.quantile``
WD and one-hot KD-tree neighbour searches (SMOTE fit, DCR), and the
decoders' ``np.interp`` quantile inverse.  They exist for two reasons:

* ``bench_hotpaths.py`` times them against the optimized kernels so the
  speedup is a measured number rather than a claim, and
* ``tests/test_perf_equivalence.py`` / ``tests/test_train_equivalence.py``
  check the optimized kernels produce the same outputs (bit-identical
  losses, parameters and samples for the training stacks).

They are *not* part of the library API and should never be imported from
``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.boosting.tree import FeatureBinner, TreeNode
from repro.metrics.correlation import correlation_ratio, pearson_correlation, theils_u
from repro.panda.daod import parse_dataset_name
from repro.panda.records import JOB_STATUSES, PANDA_SCHEMA, RAW_SCHEMA, TRANSIENT_STATUSES
from repro.panda.workload import hs23_workload, sample_core_counts
from repro.scheduler.events import Event, EventQueue, EventType
from repro.scheduler.jobs import SimulatedJob
from repro.tabular.schema import ColumnKind
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, as_rng, derive_seed

# ---------------------------------------------------------------------------
# 1. Boosting: per-feature histogram loop, full rescan of both children,
#    and the row-by-row ordered target encoder.
# ---------------------------------------------------------------------------


class SeedRegressionTree:
    """The seed histogram tree: one ``np.bincount`` per feature per node."""

    def __init__(
        self,
        max_depth: int = 6,
        min_samples_leaf: int = 20,
        min_gain: float = 1e-12,
        lambda_reg: float = 1.0,
    ) -> None:
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.min_gain = float(min_gain)
        self.lambda_reg = float(lambda_reg)
        self.nodes_: Optional[List[TreeNode]] = None

    def fit(self, binned, residuals, n_bins_per_feature):
        g = np.asarray(residuals, dtype=np.float64)
        n_features = binned.shape[1]
        nodes: List[TreeNode] = []

        def leaf_value(grad_sum, count):
            return grad_sum / (count + self.lambda_reg)

        root_idx = np.arange(binned.shape[0])
        nodes.append(TreeNode(value=leaf_value(float(g.sum()), g.size), n_samples=g.size))
        stack = [(0, root_idx, 0)]
        while stack:
            node_id, rows, depth = stack.pop()
            node = nodes[node_id]
            grad_sum = float(g[rows].sum())
            count = rows.size
            node.value = leaf_value(grad_sum, count)
            node.n_samples = count
            if depth >= self.max_depth or count < 2 * self.min_samples_leaf:
                continue
            parent_score = grad_sum * grad_sum / (count + self.lambda_reg)
            best_gain = self.min_gain
            best_feature = -1
            best_bin = -1
            sub_binned = binned[rows]
            sub_g = g[rows]
            for j in range(n_features):
                nb = n_bins_per_feature[j]
                if nb < 2:
                    continue
                codes = sub_binned[:, j]
                grad_hist = np.bincount(codes, weights=sub_g, minlength=nb)
                cnt_hist = np.bincount(codes, minlength=nb)
                grad_cum = np.cumsum(grad_hist)[:-1]
                cnt_cum = np.cumsum(cnt_hist)[:-1]
                n_left = cnt_cum
                n_right = count - cnt_cum
                valid = (n_left >= self.min_samples_leaf) & (n_right >= self.min_samples_leaf)
                if not valid.any():
                    continue
                g_left = grad_cum
                g_right = grad_sum - grad_cum
                gain = (
                    g_left * g_left / (n_left + self.lambda_reg)
                    + g_right * g_right / (n_right + self.lambda_reg)
                    - parent_score
                )
                gain = np.where(valid, gain, -np.inf)
                best_j = int(np.argmax(gain))
                if gain[best_j] > best_gain:
                    best_gain = float(gain[best_j])
                    best_feature = j
                    best_bin = best_j
            if best_feature < 0:
                continue
            mask = sub_binned[:, best_feature] <= best_bin
            node.feature = best_feature
            node.threshold_bin = best_bin
            node.left = len(nodes)
            nodes.append(TreeNode())
            node.right = len(nodes)
            nodes.append(TreeNode())
            stack.append((node.left, rows[mask], depth + 1))
            stack.append((node.right, rows[~mask], depth + 1))
        self.nodes_ = nodes
        return self

    def predict(self, binned):
        n = binned.shape[0]
        out = np.zeros(n, dtype=np.float64)
        node_of_row = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while active.size:
            current = node_of_row[active]
            feats = np.array([self.nodes_[c].feature for c in current])
            is_leaf = feats < 0
            if is_leaf.any():
                out[active[is_leaf]] = [self.nodes_[c].value for c in current[is_leaf]]
            keep = ~is_leaf
            active = active[keep]
            if not active.size:
                break
            current = current[keep]
            feats = feats[keep]
            thresholds = np.array([self.nodes_[c].threshold_bin for c in current])
            lefts = np.array([self.nodes_[c].left for c in current])
            rights = np.array([self.nodes_[c].right for c in current])
            go_left = binned[active, feats] <= thresholds
            node_of_row[active] = np.where(go_left, lefts, rights)
        return out


class SeedGradientBoostingRegressor:
    """The seed GBDT loop, consuming randomness exactly like the optimized one."""

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 6,
        min_samples_leaf: int = 20,
        subsample: float = 1.0,
        max_bins: int = 64,
        lambda_reg: float = 1.0,
        *,
        seed: SeedLike = None,
    ) -> None:
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.min_samples_leaf = int(min_samples_leaf)
        self.subsample = float(subsample)
        self.max_bins = int(max_bins)
        self.lambda_reg = float(lambda_reg)
        self._rng = as_rng(seed)
        self.binner_ = None
        self.trees_ = None
        self.base_prediction_ = None
        self.train_losses_ = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.binner_ = FeatureBinner(max_bins=self.max_bins)
        binned = self.binner_.fit_transform(X)
        n_bins = [self.binner_.n_bins(j) for j in range(X.shape[1])]
        self.base_prediction_ = float(y.mean())
        prediction = np.full(y.shape[0], self.base_prediction_)
        trees = []
        losses = []
        n = y.shape[0]
        for _ in range(self.n_estimators):
            residuals = y - prediction
            losses.append(float(np.mean(residuals ** 2)))
            if self.subsample < 1.0:
                idx = self._rng.choice(n, size=max(2, int(round(self.subsample * n))), replace=False)
            else:
                idx = np.arange(n)
            tree = SeedRegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                lambda_reg=self.lambda_reg,
            )
            tree.fit(binned[idx], residuals[idx], n_bins)
            prediction = prediction + self.learning_rate * tree.predict(binned)
            trees.append(tree)
        self.trees_ = trees
        self.train_losses_ = losses
        return self

    def predict(self, X):
        X = np.asarray(X, dtype=np.float64)
        binned = self.binner_.transform(X)
        prediction = np.full(X.shape[0], self.base_prediction_)
        for tree in self.trees_:
            prediction = prediction + self.learning_rate * tree.predict(binned)
        return prediction


class SeedOrderedTargetEncoder:
    """The seed ordered target encoder: string ``np.unique`` per call and a
    row-by-row Python loop over the permutation."""

    def __init__(self, smoothing: float = 1.0, *, seed: SeedLike = None) -> None:
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = float(smoothing)
        self._rng = as_rng(seed)
        self.prior_: Optional[float] = None
        self.statistics_: Optional[Dict[str, float]] = None

    def fit(self, categories: np.ndarray, target: np.ndarray) -> "SeedOrderedTargetEncoder":
        cats = np.asarray(categories).astype(str)
        y = np.asarray(target, dtype=np.float64)
        if cats.shape[0] != y.shape[0]:
            raise ValueError("categories and target must have the same length")
        if cats.size == 0:
            raise ValueError("cannot fit on an empty column")
        self.prior_ = float(y.mean())
        uniques, inverse = np.unique(cats, return_inverse=True)
        sums = np.bincount(inverse, weights=y, minlength=uniques.size)
        counts = np.bincount(inverse, minlength=uniques.size).astype(np.float64)
        smoothed = (sums + self.smoothing * self.prior_) / (counts + self.smoothing)
        self.statistics_ = {str(c): float(v) for c, v in zip(uniques, smoothed)}
        return self

    def transform(self, categories: np.ndarray) -> np.ndarray:
        cats = np.asarray(categories).astype(str)
        keys = np.array(sorted(self.statistics_.keys()))
        vals = np.array([self.statistics_[k] for k in keys])
        pos = np.searchsorted(keys, cats)
        pos = np.clip(pos, 0, keys.size - 1)
        hit = keys[pos] == cats
        out = np.full(cats.shape[0], self.prior_, dtype=np.float64)
        out[hit] = vals[pos[hit]]
        return out

    def fit_transform_ordered(self, categories: np.ndarray, target: np.ndarray) -> np.ndarray:
        self.fit(categories, target)
        cats = np.asarray(categories).astype(str)
        y = np.asarray(target, dtype=np.float64)
        n = cats.shape[0]
        perm = self._rng.permutation(n)
        uniques, inverse = np.unique(cats, return_inverse=True)
        codes_in_order = inverse[perm]
        y_in_order = y[perm]
        encoded_in_order = np.empty(n, dtype=np.float64)
        run_sum = np.zeros(uniques.size)
        run_cnt = np.zeros(uniques.size)
        for i in range(n):
            c = codes_in_order[i]
            encoded_in_order[i] = (run_sum[c] + self.smoothing * self.prior_) / (
                run_cnt[c] + self.smoothing
            )
            run_sum[c] += y_in_order[i]
            run_cnt[c] += 1.0
        encoded = np.empty(n, dtype=np.float64)
        encoded[perm] = encoded_in_order
        return encoded


# ---------------------------------------------------------------------------
# 1b. Mixture: the seed per-point GMM — every Lloyd assignment and EM E-step
#     evaluated on the full column, no duplicate-value compression.
# ---------------------------------------------------------------------------

from repro.mixture.gmm import MixtureParameters, _LOG_2PI  # noqa: E402
from repro.utils.validation import check_array  # noqa: E402


def seed_kmeans_1d(values, k, *, n_iter=25, seed=None):
    """The seed ``kmeans_1d``: per-point argmin assignment every iteration."""
    arr = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
    uniques = np.unique(arr)
    k = int(min(k, uniques.size))
    centers = np.quantile(arr, np.linspace(0.0, 1.0, k)) if k > 1 else np.array([arr.mean()])
    centers = np.unique(centers)
    for _ in range(n_iter):
        assign = np.argmin(np.abs(arr[:, None] - centers[None, :]), axis=1)
        new_centers = np.array(
            [arr[assign == j].mean() if np.any(assign == j) else centers[j] for j in range(centers.size)]
        )
        if np.allclose(new_centers, centers):
            centers = new_centers
            break
        centers = new_centers
    return np.sort(centers)


class SeedGaussianMixture:
    """The seed EM loop: every E/M pass runs over all ``n`` rows."""

    def __init__(self, n_components=10, *, max_iter=100, tol=1e-4,
                 weight_threshold=5e-3, reg_var=1e-6, seed=None):
        self.n_components = int(n_components)
        self.max_iter = int(max_iter)
        self.tol = float(tol)
        self.weight_threshold = float(weight_threshold)
        self.reg_var = float(reg_var)
        self._rng = as_rng(seed)
        self.params_ = None
        self.log_likelihood_ = None
        self.n_iter_ = None

    def _log_prob_components(self, x, params):
        diff = x[:, None] - params.means[None, :]
        var = params.stds[None, :] ** 2
        log_pdf = -0.5 * (diff * diff / var + np.log(var) + _LOG_2PI)
        return log_pdf + np.log(params.weights[None, :])

    @staticmethod
    def _logsumexp(a, axis=1):
        amax = a.max(axis=axis, keepdims=True)
        return (amax + np.log(np.exp(a - amax).sum(axis=axis, keepdims=True))).squeeze(axis)

    def fit(self, values):
        x = check_array(values, ndim=1, dtype=np.float64, allow_empty=False, name="values")
        n = x.size
        k = min(self.n_components, np.unique(x).size)
        means = seed_kmeans_1d(x, k)
        k = means.size
        global_std = max(float(x.std()), np.sqrt(self.reg_var))
        stds = np.full(k, global_std if k == 1 else max(global_std / k, np.sqrt(self.reg_var)))
        weights = np.full(k, 1.0 / k)
        params = MixtureParameters(weights, means, stds)

        prev_ll = -np.inf
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            log_joint = self._log_prob_components(x, params)
            log_norm = self._logsumexp(log_joint, axis=1)
            resp = np.exp(log_joint - log_norm[:, None])
            ll = float(log_norm.mean())

            nk = resp.sum(axis=0) + 1e-12
            weights = nk / n
            means = (resp * x[:, None]).sum(axis=0) / nk
            var = (resp * (x[:, None] - means[None, :]) ** 2).sum(axis=0) / nk + self.reg_var
            stds = np.sqrt(var)
            params = MixtureParameters(weights, means, stds)

            if np.isfinite(prev_ll) and abs(ll - prev_ll) < self.tol * max(abs(prev_ll), 1.0):
                prev_ll = ll
                break
            prev_ll = ll

        keep = params.weights >= self.weight_threshold
        if not keep.any():
            keep = params.weights == params.weights.max()
        params = MixtureParameters(
            params.weights[keep] / params.weights[keep].sum(),
            params.means[keep],
            params.stds[keep],
        )
        self.params_ = params
        self.log_likelihood_ = prev_ll
        self.n_iter_ = n_iter
        return self

    @property
    def n_active_components(self):
        return self.params_.n_components

    def responsibilities(self, values):
        x = np.asarray(values, dtype=np.float64)
        log_joint = self._log_prob_components(x, self.params_)
        log_norm = self._logsumexp(log_joint, axis=1)
        return np.exp(log_joint - log_norm[:, None])

    def sample_component(self, values, rng=None):
        rng = rng or self._rng
        resp = self.responsibilities(values)
        cum = np.cumsum(resp, axis=1)
        u = rng.random((resp.shape[0], 1))
        return (u < cum).argmax(axis=1)

    def normalize(self, values, components):
        x = np.asarray(values, dtype=np.float64)
        c = np.asarray(components, dtype=np.int64)
        alpha = (x - self.params_.means[c]) / (4.0 * self.params_.stds[c])
        return np.clip(alpha, -1.0, 1.0)

    def denormalize(self, alphas, components):
        a = np.asarray(alphas, dtype=np.float64)
        c = np.asarray(components, dtype=np.int64)
        return a * 4.0 * self.params_.stds[c] + self.params_.means[c]


# ---------------------------------------------------------------------------
# 2. Metrics: per-pair association matrix, re-encoding columns per pair.
# ---------------------------------------------------------------------------


def seed_association_matrix(
    table: Table, columns: Optional[Sequence[str]] = None
) -> Tuple[np.ndarray, Sequence[str]]:
    """The seed O(d^2) double loop over column pairs."""
    cols = list(columns) if columns is not None else table.columns
    k = len(cols)
    matrix = np.eye(k)
    kinds = {c: table.schema.kind_of(c) for c in cols}
    for i, ci in enumerate(cols):
        for j, cj in enumerate(cols):
            if i == j:
                continue
            ki, kj = kinds[ci], kinds[cj]
            if ki is ColumnKind.NUMERICAL and kj is ColumnKind.NUMERICAL:
                value = abs(pearson_correlation(table[ci], table[cj]))
            elif ki is ColumnKind.CATEGORICAL and kj is ColumnKind.CATEGORICAL:
                value = theils_u(table[ci], table[cj])
            elif ki is ColumnKind.CATEGORICAL:
                value = correlation_ratio(table[ci], table[cj])
            else:
                value = correlation_ratio(table[cj], table[ci])
            matrix[i, j] = value
    return matrix, cols


# ---------------------------------------------------------------------------
# 3. Panda: the string-path raw generator (per-row name, site and status
#    strings) and row-by-row dataset-name parsing in the filtering pipeline.
# ---------------------------------------------------------------------------


def _seed_cpu_time_hours(n_files, file_bytes, datatype, rng, *, base_seconds_per_gb=900.0):
    """The seed CPU-time draw: data-type factors from per-row strings."""
    nf = np.asarray(n_files, dtype=np.float64)
    fb = np.asarray(file_bytes, dtype=np.float64)
    dtypes = np.asarray(datatype).astype(str)
    gigabytes = fb / 1e9

    factor = np.ones(dtypes.shape[0])
    factor[np.char.startswith(dtypes, "DAOD_PHYSLITE")] = 0.35
    factor[dtypes == "DAOD_PHYS"] = 1.0
    factor[np.char.startswith(dtypes, "DAOD_JETM")] = 1.6
    factor[np.char.startswith(dtypes, "DAOD_EXOT")] = 1.4
    factor[np.char.startswith(dtypes, "DAOD_HIGG")] = 1.3
    factor[~np.char.startswith(dtypes, "DAOD")] = 2.5

    noise = rng.lognormal(mean=0.0, sigma=0.6, size=dtypes.shape[0])
    seconds = base_seconds_per_gb * gigabytes * factor * noise
    seconds += 30.0 * nf * rng.lognormal(0.0, 0.3, size=dtypes.shape[0])
    return seconds / 3600.0


def seed_generate_raw(generator, n_jobs=None, *, seed: SeedLike = None) -> Table:
    """The seed ``PandaWorkloadGenerator.generate_raw``: per-row strings.

    Dataset names, site names, task types and job statuses are built as
    per-row string arrays, the site reliability is a per-row dict lookup,
    the project-affinity hash runs once per catalog dataset, and the
    ``Table`` constructor factorizes every string column with ``np.unique``.
    """
    cfg = generator.config
    n = int(n_jobs if n_jobs is not None else cfg.n_jobs)
    rng = as_rng(seed if seed is not None else derive_seed(cfg.seed, "records"))

    creation = generator.arrivals.sample_times(n, seed=rng)
    generator.users.sample_users(n, rng)
    dataset_idx = generator.datasets.sample_indices(n, rng)

    dataset_names = generator.datasets.name_array[dataset_idx]
    datatype = generator.datasets.datatype_array[dataset_idx]
    ds_files = generator.datasets.n_files_array[dataset_idx]
    ds_bytes = generator.datasets.total_bytes_array[dataset_idx]

    read_fraction = np.clip(rng.beta(2.0, 3.0, size=n), 0.02, 1.0)
    n_files = np.maximum(1, np.rint(ds_files * read_fraction)).astype(np.float64)
    bytes_per_file = ds_bytes / np.maximum(ds_files, 1.0)
    input_bytes = n_files * bytes_per_file * rng.lognormal(0.0, 0.15, size=n)

    is_analysis = rng.random(n) < cfg.analysis_fraction
    tasktype = np.where(is_analysis, "analysis", "production")

    sites = generator.sites
    idx = rng.choice(len(sites.sites), size=n, p=sites.popularity)
    site_names = np.array(sites.names, dtype=object)[idx].astype(str)
    catalog_codes = np.array(
        [
            derive_seed(0, "project-affinity", p) % len(sites)
            for p in generator.datasets.project_array
        ]
    )
    project_codes = catalog_codes[dataset_idx]
    affinity = rng.random(n) < 0.25
    preferred_sites = np.array(sites.names, dtype=object)[project_codes]
    site_names = np.where(affinity, preferred_sites, site_names).astype(str)

    core_count = sample_core_counts(n, rng)
    cpu_hours = _seed_cpu_time_hours(n_files, input_bytes, datatype, rng)

    reliability = sites.reliability_of(site_names)
    log_hours = np.log1p(cpu_hours)
    fail_prob = np.clip((1.0 - reliability) * (0.6 + 0.25 * log_hours), 0.0, 0.9)
    u = rng.random(n)
    status = np.full(n, "finished", dtype=object)
    status[u < fail_prob] = "failed"
    cancel_band = (u >= fail_prob) & (u < fail_prob + 0.03)
    status[cancel_band] = "cancelled"
    closed_band = (u >= fail_prob + 0.03) & (u < fail_prob + 0.05)
    status[closed_band] = "closed"
    transient = rng.random(n) < cfg.transient_fraction
    status[transient] = rng.choice(
        np.array(TRANSIENT_STATUSES, dtype=object), size=int(transient.sum())
    )

    data = {
        "creationtime": creation,
        "ninputdatafiles": n_files,
        "inputfilebytes": input_bytes,
        "corecount": core_count,
        "cputime_hours": cpu_hours,
        "tasktype": tasktype,
        "jobstatus": status.astype(str),
        "computingsite": site_names,
        "inputdatasetname": dataset_names.astype(str),
    }
    return Table(data, RAW_SCHEMA)


class SeedFilteringPipeline:
    """The seed pipeline: ``parse_dataset_name`` called once per row."""

    def __init__(self, sites):
        self.sites = sites

    def run(self, raw: Table):
        from repro.panda.pipeline import FilterReport

        report = FilterReport(gross_records=len(raw))
        analysis = raw.mask(np.asarray(raw["tasktype"]) == "analysis")
        report.add("user analysis jobs", len(raw), len(analysis))
        datatypes = np.array(
            [parse_dataset_name(name)["datatype"] for name in analysis["inputdatasetname"]]
        )
        daod_mask = np.char.startswith(datatypes.astype(str), "DAOD")
        daod = analysis.mask(daod_mask)
        report.add("DAOD input datasets", len(analysis), len(daod))
        final_mask = np.isin(np.asarray(daod["jobstatus"]), np.asarray(JOB_STATUSES))
        final = daod.mask(final_mask)
        report.add("final job status", len(daod), len(final))
        table = self.derive_features(final)
        report.add("feature derivation", len(final), len(table))
        return table, report

    def derive_features(self, records: Table) -> Table:
        parsed = [parse_dataset_name(name) for name in records["inputdatasetname"]]
        project = np.array([p["project"] for p in parsed], dtype=object).astype(str)
        prodstep = np.array([p["prodstep"] for p in parsed], dtype=object).astype(str)
        datatype = np.array([p["datatype"] for p in parsed], dtype=object).astype(str)
        hs23 = self.sites.hs23_of(records["computingsite"])
        workload = hs23_workload(records["corecount"], records["cputime_hours"], hs23)
        data = {
            "workload": workload,
            "creationtime": records["creationtime"],
            "ninputdatafiles": records["ninputdatafiles"],
            "inputfilebytes": records["inputfilebytes"],
            "jobstatus": records["jobstatus"],
            "computingsite": records["computingsite"],
            "project": project,
            "prodstep": prodstep,
            "datatype": datatype,
        }
        return Table(data, PANDA_SCHEMA)


# ---------------------------------------------------------------------------
# 4. Scheduler: full backlog rescan (broker call per queued job) per event.
# ---------------------------------------------------------------------------

_HOURS_PER_DAY = 24.0


class SeedGridSimulator:
    """The seed event loop: every event rescans the whole FIFO backlog."""

    def __init__(self, cluster, broker) -> None:
        self.cluster = cluster
        self.broker = broker

    def run(self, jobs: Sequence[SimulatedJob], *, max_backlog: Optional[int] = None):
        from repro.scheduler.simulator import SimulationResult

        jobs = list(jobs)
        queue = EventQueue()
        for job in jobs:
            queue.push(Event(job.arrival_time, EventType.JOB_ARRIVAL, job))
        backlog: List[SimulatedJob] = []
        start_times: Dict[int, float] = {}
        finish_times: Dict[int, float] = {}
        runtimes: Dict[int, float] = {}
        site_of_job: Dict[int, str] = {}
        now = 0.0

        def try_dispatch(time: float) -> None:
            still_waiting: List[SimulatedJob] = []
            for job in backlog:
                site_name = self.broker.select_site(job, self.cluster)
                if site_name is None:
                    still_waiting.append(job)
                    continue
                state = self.cluster[site_name]
                state.allocate(job.cores, time)
                runtime_hours = job.runtime_at(state.site.hs23_per_core)
                start_times[job.job_id] = time
                runtimes[job.job_id] = runtime_hours
                site_of_job[job.job_id] = site_name
                queue.push(
                    Event(time + runtime_hours / _HOURS_PER_DAY, EventType.JOB_FINISH, job)
                )
            backlog[:] = still_waiting

        while queue:
            event = queue.pop()
            now = event.time
            job = event.payload
            if event.kind is EventType.JOB_ARRIVAL:
                backlog.append(job)
                if max_backlog is not None and len(backlog) > max_backlog:
                    raise RuntimeError(
                        f"backlog exceeded {max_backlog} jobs; the cluster is undersized"
                    )
                try_dispatch(now)
            elif event.kind is EventType.JOB_FINISH:
                site_name = site_of_job[job.job_id]
                state = self.cluster[site_name]
                state.release(job.cores, now)
                state.completed_jobs += 1
                finish_times[job.job_id] = now
                try_dispatch(now)

        horizon = max(now, 1e-9)
        for state in self.cluster.sites.values():
            state.advance_to(horizon)
        completed = sorted(finish_times.keys())
        jobs_by_id = {job.job_id: job for job in jobs}
        wait_hours = np.array(
            [(start_times[j] - jobs_by_id[j].arrival_time) * _HOURS_PER_DAY for j in completed]
        )
        runtime_hours = np.array([runtimes[j] for j in completed]) if completed else np.empty(0)
        return SimulationResult(
            broker=self.broker.name,
            n_jobs=len(jobs),
            n_completed=len(completed),
            makespan_days=float(horizon - min((j.arrival_time for j in jobs), default=0.0)),
            mean_wait_hours=float(wait_hours.mean()) if wait_hours.size else 0.0,
            p95_wait_hours=float(np.percentile(wait_hours, 95)) if wait_hours.size else 0.0,
            mean_runtime_hours=float(runtime_hours.mean()) if runtime_hours.size else 0.0,
            utilization_by_site=self.cluster.utilization_by_site(horizon),
            wait_times_hours=wait_hours,
        )


# ---------------------------------------------------------------------------
# 5. NN: the pre-fusion optimisers (fresh arrays per parameter per step).
# ---------------------------------------------------------------------------

from repro.models.ctabgan import CTABGANPlusSurrogate, _ModeSpecificEncoder  # noqa: E402
from repro.models.tabddpm.denoiser import MLPDenoiser, timestep_embedding  # noqa: E402
from repro.models.tabddpm.gaussian import GaussianDiffusion  # noqa: E402
from repro.models.tabddpm.model import TabDDPMSurrogate  # noqa: E402
from repro.models.tabddpm.multinomial import MultinomialDiffusion  # noqa: E402
from repro.models.tabddpm.schedule import DiffusionSchedule  # noqa: E402
from repro.models.tvae import TVAESurrogate  # noqa: E402
from repro.nn import (  # noqa: E402
    MLP,
    Tensor,
    bce_with_logits,
    clip_grad_norm,
    cross_entropy_logits,
    gaussian_kl,
    mse_loss,
    no_grad,
)
from repro.nn.optim import CosineSchedule, Optimizer  # noqa: E402
from repro.tabular.encoding import OneHotEncoder  # noqa: E402
from repro.tabular.mixed import MixedEncoder  # noqa: E402
from repro.tabular.schema import ColumnKind  # noqa: E402
from repro.utils.rng import derive_seed  # noqa: E402


class SeedSGD(Optimizer):
    """The seed SGD step: a fresh velocity/update array per parameter."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [None] * len(self.parameters)

    def step(self) -> None:
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            if self.momentum > 0:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + p.grad
                update = self._velocity[i]
            else:
                update = p.grad
            p.data -= self.lr * update


class SeedAdam(Optimizer):
    """The seed Adam step: ~7 temporary arrays per parameter per step."""

    def __init__(self, parameters, lr: float = 2e-4, betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m = [None] * len(self.parameters)
        self._v = [None] * len(self.parameters)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.parameters):
            if p.grad is None:
                continue
            grad = p.grad
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data)
                self._v[i] = np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1.0 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1.0 - self.beta2) * grad * grad
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            if self.weight_decay > 0:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# 6. Models: the seed training loops — unfused Linear+activation autograd,
#    per-block Tensor losses, per-block diffusion sampling, SeedAdam steps.
#    Each subclass overrides only fit()/network construction, so sampling and
#    the public API stay those of the live models.
# ---------------------------------------------------------------------------


class SeedTVAESurrogate(TVAESurrogate):
    """TVAE trained through the seed (unfused, per-block) step."""

    def _build(self, n_features: int) -> None:
        cfg = self.config
        net_seed = derive_seed(self._seed if isinstance(self._seed, int) else None, "tvae")
        self._encoder_net = MLP(
            n_features, list(cfg.hidden_dims), 2 * cfg.latent_dim,
            activation="relu", fused=False, seed=net_seed,
        )
        self._decoder_net = MLP(
            cfg.latent_dim, list(cfg.hidden_dims), n_features,
            activation="relu", fused=False, seed=net_seed + 1,
        )

    def _reconstruction_loss(self, decoded: Tensor, batch: np.ndarray) -> Tensor:
        encoded = self._encoder_data
        num_idx = self._numerical_indices
        loss = Tensor(0.0)
        if num_idx.size:
            loss = loss + mse_loss(decoded[:, num_idx], batch[:, num_idx]) * float(num_idx.size)
        for block in encoded.blocks_:
            if block.kind.value != "categorical":
                continue
            logits = decoded[:, block.start : block.stop]
            target = batch[:, block.start : block.stop]
            loss = loss + cross_entropy_logits(logits, target)
        return loss

    def fit(self, table) -> "SeedTVAESurrogate":
        self._mark_fitted(table)
        cfg = self.config
        rng = as_rng(derive_seed(self._seed if isinstance(self._seed, int) else None, "fit"))

        self._encoder_data = MixedEncoder(
            numerical_transform_factory=self._numerical_transform_factory
        )
        encoded = self._encoder_data.fit_transform(table)
        X = encoded.values
        self._numerical_indices = encoded.numerical_indices
        self._categorical_spans = [
            (b.start, b.stop) for b in self._encoder_data.blocks_
            if b.kind.value == "categorical"
        ]
        self._build(X.shape[1])

        params = self._encoder_net.parameters() + self._decoder_net.parameters()
        optimizer = SeedAdam(params, lr=cfg.learning_rate)
        n_batches_per_epoch = max(1, X.shape[0] // cfg.batch_size)
        schedule = CosineSchedule(optimizer, total_steps=cfg.epochs * n_batches_per_epoch)

        losses = []
        for epoch in range(cfg.epochs):
            permutation = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            for b in range(n_batches_per_epoch):
                idx = permutation[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                if idx.size < 2:
                    continue
                batch = X[idx]
                batch_t = Tensor(batch)

                stats = self._encoder_net(batch_t)
                mu = stats[:, : cfg.latent_dim]
                logvar = stats[:, cfg.latent_dim :].clip(-8.0, 8.0)
                noise = Tensor(rng.standard_normal((idx.size, cfg.latent_dim)))
                z = mu + (logvar * 0.5).exp() * noise
                decoded = self._decoder_net(z)

                recon = self._reconstruction_loss(decoded, batch)
                kl = gaussian_kl(mu, logvar)
                loss = recon + cfg.kl_weight * kl

                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(params, cfg.grad_clip)
                optimizer.step()
                schedule.step()
                epoch_loss += loss.item()
            losses.append(epoch_loss / n_batches_per_epoch)
        self.loss_history_ = losses
        return self


class SeedModeSpecificEncoder(_ModeSpecificEncoder):
    """The seed mode-specific encoder: a full per-column loop in ``fit``,
    ``transform`` and ``inverse_transform``, with the seed (uncompressed)
    Gaussian mixtures underneath."""

    def fit(self, table):
        cursor = 0
        for col in table.schema:
            if col.is_numerical:
                gmm = SeedGaussianMixture(
                    n_components=self.gmm_components,
                    seed=derive_seed(self.seed, "gmm", col.name),
                )
                gmm.fit(table[col.name])
                self.numerical_gmms[col.name] = gmm
                width = 1 + gmm.n_active_components
            else:
                enc = OneHotEncoder()
                enc.fit(table[col.name])
                self.categorical_encoders[col.name] = enc
                width = enc.n_categories
            self.layout.append((col.name, col.kind.value, cursor, width))
            cursor += width
        self.n_features = cursor
        return self

    def transform(self, table, rng):
        parts = []
        for name, kind, _start, _width in self.layout:
            if kind == ColumnKind.NUMERICAL.value:
                gmm = self.numerical_gmms[name]
                values = np.asarray(table[name], dtype=np.float64)
                comp = gmm.sample_component(values, rng)
                alpha = gmm.normalize(values, comp)
                onehot = np.zeros((values.shape[0], gmm.n_active_components))
                onehot[np.arange(values.shape[0]), comp] = 1.0
                parts.append(np.concatenate([alpha[:, None], onehot], axis=1))
            else:
                parts.append(self.categorical_encoders[name].transform(table[name]))
        return np.concatenate(parts, axis=1)

    def inverse_transform(self, matrix, schema, rng):
        data = {}
        for name, kind, start, width in self.layout:
            chunk = matrix[:, start : start + width]
            if kind == ColumnKind.NUMERICAL.value:
                gmm = self.numerical_gmms[name]
                alpha = np.clip(chunk[:, 0], -1.0, 1.0)
                comp = np.argmax(chunk[:, 1:], axis=1)
                data[name] = gmm.denormalize(alpha, comp)
            else:
                data[name] = self.categorical_encoders[name].inverse_transform(chunk)
        return Table(data, schema)


class SeedConditionSampler:
    """The seed training-by-sampling loop: ``rng.choice`` per column plus a
    Python loop drawing one matching real row per batch element."""

    def __init__(self, table, layout, encoders):
        self.layout = layout
        self.total_width = sum(width for _, _, width in layout)
        self.offsets = np.cumsum([0] + [width for _, _, width in layout])[:-1]
        self.category_probs: List[np.ndarray] = []
        self.category_rows: List[List[np.ndarray]] = []
        for (name, _start, width) in layout:
            codes = encoders[name].transform_codes(table[name])
            counts = np.bincount(codes, minlength=width).astype(np.float64)
            logfreq = np.log1p(counts)
            probs = logfreq / logfreq.sum() if logfreq.sum() > 0 else np.full(width, 1.0 / width)
            self.category_probs.append(probs)
            self.category_rows.append([np.nonzero(codes == c)[0] for c in range(width)])

    def sample(self, batch_size: int, rng: np.random.Generator):
        n_columns = len(self.layout)
        cond = np.zeros((batch_size, self.total_width))
        col_choice = rng.integers(0, n_columns, size=batch_size)
        cat_choice = np.empty(batch_size, dtype=np.int64)
        row_choice = np.empty(batch_size, dtype=np.int64)
        for j in range(n_columns):
            mask = col_choice == j
            count = int(mask.sum())
            if count == 0:
                continue
            cats = rng.choice(self.category_probs[j].size, size=count, p=self.category_probs[j])
            cat_choice[mask] = cats
            cond[np.nonzero(mask)[0], self.offsets[j] + cats] = 1.0
            rows = np.empty(count, dtype=np.int64)
            for i, cat in enumerate(cats):
                pool = self.category_rows[j][cat]
                rows[i] = pool[rng.integers(0, pool.size)] if pool.size else rng.integers(0, 1)
            row_choice[mask] = rows
        return cond, col_choice, cat_choice, row_choice


class SeedCTABGANSurrogate(CTABGANPlusSurrogate):
    """CTABGAN+ trained through the seed (unfused, per-block) step."""

    def _activate_generator_output(self, raw: Tensor) -> Tensor:
        parts = []
        for name, kind, start, width in self._encoder.layout:
            if kind == ColumnKind.NUMERICAL.value:
                parts.append(raw[:, start : start + 1].tanh())
                parts.append(raw[:, start + 1 : start + width].softmax(axis=-1))
            else:
                parts.append(raw[:, start : start + width].softmax(axis=-1))
        return Tensor.concat(parts, axis=1)

    def _condition_loss(self, raw: Tensor, col_choice: np.ndarray, cat_choice: np.ndarray) -> Tensor:
        layout = self._encoder.categorical_layout
        loss = Tensor(0.0)
        n_terms = 0
        for j, (name, start, width) in enumerate(layout):
            mask = col_choice == j
            if not mask.any():
                continue
            rows = np.nonzero(mask)[0]
            logits = raw[rows][:, start : start + width]
            loss = loss + cross_entropy_logits(logits, cat_choice[mask])
            n_terms += 1
        return loss * (1.0 / max(n_terms, 1))

    def fit(self, table) -> "SeedCTABGANSurrogate":
        self._mark_fitted(table)
        cfg = self.config
        seed_int = self._seed if isinstance(self._seed, int) else None
        rng = as_rng(derive_seed(seed_int, "fit"))

        self._encoder = SeedModeSpecificEncoder(cfg.gmm_components, seed_int).fit(table)
        encoded = self._encoder.transform(table, rng)
        self._activation_layout = self._output_layout()
        cat_layout = self._encoder.categorical_layout
        self._condition = SeedConditionSampler(table, cat_layout, self._encoder.categorical_encoders)

        data_dim = self._encoder.n_features
        cond_dim = self._condition.total_width
        self._generator = MLP(
            cfg.noise_dim + cond_dim, list(cfg.generator_dims), data_dim,
            activation="relu", fused=False, seed=derive_seed(seed_int, "generator"),
        )
        self._discriminator = MLP(
            data_dim + cond_dim, list(cfg.discriminator_dims), 1,
            activation="leaky_relu", dropout=0.25, fused=False,
            seed=derive_seed(seed_int, "discriminator"),
        )

        g_params = self._generator.parameters()
        d_params = self._discriminator.parameters()
        g_optimizer = SeedAdam(g_params, lr=cfg.learning_rate, betas=(0.5, 0.9))
        d_optimizer = SeedAdam(d_params, lr=cfg.learning_rate, betas=(0.5, 0.9))

        n = encoded.shape[0]
        steps_per_epoch = max(1, n // cfg.batch_size)
        history = []
        ones = None
        zeros = None
        for epoch in range(cfg.epochs):
            d_loss_value = 0.0
            g_loss_value = 0.0
            for _ in range(steps_per_epoch):
                for _ in range(cfg.discriminator_steps):
                    cond, col_c, cat_c, row_c = self._condition.sample(cfg.batch_size, rng)
                    real = encoded[row_c]
                    noise = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
                    with no_grad():
                        fake_raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                        fake = self._activate_generator_output(fake_raw).numpy()
                    real_in = Tensor(np.concatenate([real, cond], axis=1))
                    fake_in = Tensor(np.concatenate([fake, cond], axis=1))
                    real_logit = self._discriminator(real_in)
                    fake_logit = self._discriminator(fake_in)
                    if ones is None or ones.shape[0] != cfg.batch_size:
                        ones = np.ones((cfg.batch_size, 1))
                        zeros = np.zeros((cfg.batch_size, 1))
                    d_loss = bce_with_logits(real_logit, ones) + bce_with_logits(fake_logit, zeros)
                    d_optimizer.zero_grad()
                    d_loss.backward()
                    clip_grad_norm(d_params, cfg.grad_clip)
                    d_optimizer.step()
                    d_loss_value += d_loss.item()

                cond, col_c, cat_c, _rows = self._condition.sample(cfg.batch_size, rng)
                noise = rng.standard_normal((cfg.batch_size, cfg.noise_dim))
                fake_raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                fake = self._activate_generator_output(fake_raw)
                fake_logit = self._discriminator(Tensor.concat([fake, Tensor(cond)], axis=1))
                adv_loss = bce_with_logits(fake_logit, np.ones((cfg.batch_size, 1)))
                cond_loss = self._condition_loss(fake_raw, col_c, cat_c)
                g_loss = adv_loss + cond_loss
                g_optimizer.zero_grad()
                g_loss.backward()
                clip_grad_norm(g_params, cfg.grad_clip)
                g_optimizer.step()
                g_loss_value += g_loss.item()

            history.append(
                {
                    "epoch": epoch + 1,
                    "d_loss": d_loss_value / (steps_per_epoch * cfg.discriminator_steps),
                    "g_loss": g_loss_value / steps_per_epoch,
                }
            )
        self.loss_history_ = history
        return self

    def sample(self, n, *, seed=None):
        """The seed sampling loop: per-batch activation, one hardening pass
        per block, per-column inverse transform."""
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        self._generator.eval()
        outputs = []
        remaining = n
        with no_grad():
            while remaining > 0:
                batch = min(cfg.batch_size, remaining)
                cond, _, _, _ = self._condition.sample(batch, rng)
                noise = rng.standard_normal((batch, cfg.noise_dim))
                raw = self._generator(Tensor(np.concatenate([noise, cond], axis=1)))
                activated = self._activate_generator_output(raw).numpy()
                outputs.append(activated)
                remaining -= batch
        self._generator.train()
        matrix = np.concatenate(outputs, axis=0)
        hardened = matrix.copy()
        for name, kind, start, width in self._encoder.layout:
            block_start = start + 1 if kind == ColumnKind.NUMERICAL.value else start
            block_width = width - 1 if kind == ColumnKind.NUMERICAL.value else width
            if block_width <= 0:
                continue
            probs = matrix[:, block_start : block_start + block_width]
            probs = probs / np.maximum(probs.sum(axis=1, keepdims=True), 1e-12)
            cumulative = np.cumsum(probs, axis=1)
            draws = rng.random((matrix.shape[0], 1))
            chosen = (draws < cumulative).argmax(axis=1)
            onehot = np.zeros_like(probs)
            onehot[np.arange(matrix.shape[0]), chosen] = 1.0
            hardened[:, block_start : block_start + block_width] = onehot
        return self._encoder.inverse_transform(hardened, self.schema_, rng)


class SeedMLPDenoiser(MLPDenoiser):
    """The seed denoiser forward: per-row timestep embedding + concatenation
    on every call (no shared-timestep inference fast path)."""

    def forward(self, x_t, t):
        emb = timestep_embedding(t, self.time_embedding_dim)
        inputs = Tensor.concat([x_t, Tensor(emb)], axis=1)
        return self.net(inputs)


class SeedTabDDPMSurrogate(TabDDPMSurrogate):
    """TabDDPM trained through the seed (per-block diffusion/loss) step."""

    def _build(self, n_features: int) -> None:
        cfg = self.config
        if cfg.schedule == "cosine":
            schedule = DiffusionSchedule.cosine(cfg.n_timesteps)
        else:
            schedule = DiffusionSchedule.linear(cfg.n_timesteps)
        self._gaussian = GaussianDiffusion(schedule)
        self._multinomials = [
            (block, MultinomialDiffusion(block.width, schedule))
            for block in self._encoder.blocks_
            if block.kind.value == "categorical"
        ]
        self._categorical_spans = [(b.start, b.stop) for b, _ in self._multinomials]
        self._denoiser = SeedMLPDenoiser(
            n_features,
            hidden_dims=list(cfg.hidden_dims),
            time_embedding_dim=cfg.time_embedding_dim,
            fused=False,
            seed=derive_seed(self._seed if isinstance(self._seed, int) else None, "denoiser"),
        )

    def fit(self, table) -> "SeedTabDDPMSurrogate":
        self._mark_fitted(table)
        cfg = self.config
        rng = as_rng(derive_seed(self._seed if isinstance(self._seed, int) else None, "fit"))

        self._encoder = MixedEncoder()
        encoded = self._encoder.fit_transform(table)
        X = encoded.values
        self._numerical_indices = encoded.numerical_indices
        self._build(X.shape[1])

        params = self._denoiser.parameters()
        optimizer = SeedAdam(params, lr=cfg.learning_rate)
        steps_per_epoch = max(1, X.shape[0] // cfg.batch_size)
        lr_schedule = CosineSchedule(optimizer, total_steps=cfg.epochs * steps_per_epoch)

        num_idx = self._numerical_indices
        losses = []
        for epoch in range(cfg.epochs):
            permutation = rng.permutation(X.shape[0])
            epoch_loss = 0.0
            for b in range(steps_per_epoch):
                idx = permutation[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                if idx.size < 2:
                    continue
                batch = X[idx]
                t = rng.integers(0, cfg.n_timesteps, size=idx.size)

                noisy = np.empty_like(batch)
                noise = rng.standard_normal((idx.size, num_idx.size)) if num_idx.size else None
                if num_idx.size:
                    noisy[:, num_idx] = self._gaussian.q_sample(batch[:, num_idx], t, noise)
                for block, diffusion in self._multinomials:
                    noisy[:, block.slice] = diffusion.q_sample(batch[:, block.slice], t, rng)

                prediction = self._denoiser(Tensor(noisy), t)

                loss = Tensor(0.0)
                if num_idx.size:
                    loss = loss + mse_loss(prediction[:, num_idx], noise) * float(num_idx.size)
                for block, _diffusion in self._multinomials:
                    logits = prediction[:, block.start : block.stop]
                    loss = loss + cross_entropy_logits(logits, batch[:, block.slice])

                optimizer.zero_grad()
                loss.backward()
                clip_grad_norm(params, cfg.grad_clip)
                optimizer.step()
                lr_schedule.step()
                epoch_loss += loss.item()
            losses.append(epoch_loss / steps_per_epoch)
        self.loss_history_ = losses
        return self

    def sample(self, n, *, seed=None):
        """The seed reverse chain: one softmax + posterior draw per block per step."""
        self._require_fitted()
        cfg = self.config
        rng = as_rng(seed)
        self._denoiser.eval()

        num_idx = self._numerical_indices
        n_features = self._encoder.n_features
        state = np.zeros((n, n_features))
        if num_idx.size:
            state[:, num_idx] = rng.standard_normal((n, num_idx.size))
        for block, diffusion in self._multinomials:
            uniform = np.full((n, block.width), 1.0 / block.width)
            state[:, block.slice] = MultinomialDiffusion._sample_onehot(uniform, rng)

        for t in reversed(range(cfg.n_timesteps)):
            t_vector = np.full(n, t, dtype=np.int64)
            prediction = self._denoise_batch(state, t_vector)
            if num_idx.size:
                eps = prediction[:, num_idx]
                state[:, num_idx] = self._gaussian.p_sample_step(state[:, num_idx], t, eps, rng)
            for block, diffusion in self._multinomials:
                logits = prediction[:, block.start : block.stop]
                logits = logits - logits.max(axis=1, keepdims=True)
                x0_probs = np.exp(logits)
                x0_probs /= np.maximum(x0_probs.sum(axis=1, keepdims=True), 1e-12)
                state[:, block.slice] = diffusion.p_sample_step(state[:, block.slice], t, x0_probs, rng)

        self._denoiser.train()
        return self._encoder.inverse_transform(state)


# ---------------------------------------------------------------------------
# 7. Scheduler: the seed O(sites) brokerage — a Python scan over every site
#    per placement — and the watermark simulator that recomputed its
#    free-core maximum with a full pass after every allocation.
# ---------------------------------------------------------------------------


class SeedScanLeastLoadedBroker:
    """The seed least-loaded policy: linear scan of all sites per call."""

    name = "least_loaded"

    def select_site(self, job, cluster):
        best_name = None
        best_key = (-1.0, -1.0)
        for state in cluster.sites.values():
            if state.free_cores < job.cores:
                continue
            key = (float(state.free_cores), state.site.hs23_per_core)
            if key > best_key:
                best_key = key
                best_name = state.site.name
        return best_name


class SeedScanDataLocalityBroker:
    """The seed data-locality policy with the linear-scan fallback.

    Replica placement reuses the live stable per-project hash so that the
    comparison against the indexed broker isolates the scan strategy.
    """

    name = "data_locality"

    def __init__(self, cluster, *, replicas_per_project: int = 3, seed: SeedLike = None):
        self._rng = as_rng(seed)
        self._fallback = SeedScanLeastLoadedBroker()
        self.replicas_per_project = int(replicas_per_project)
        self._hosting = {}
        self._site_names = list(cluster.sites.keys())

    def _hosts_of(self, project: str):
        if project not in self._hosting:
            rng = np.random.default_rng(derive_seed(None, "replica", project))
            k = min(self.replicas_per_project, len(self._site_names))
            chosen = rng.choice(len(self._site_names), size=k, replace=False)
            self._hosting[project] = [self._site_names[i] for i in chosen]
        return self._hosting[project]

    def select_site(self, job, cluster):
        hosts = self._hosts_of(job.project)
        candidates = [cluster[name] for name in hosts if cluster[name].free_cores >= job.cores]
        if candidates:
            best = max(candidates, key=lambda s: (s.free_cores, s.site.hs23_per_core))
            return best.site.name
        return self._fallback.select_site(job, cluster)


class SeedWatermarkGridSimulator:
    """The seed watermark event loop: free_max recomputed by an O(sites) pass."""

    def __init__(self, cluster, broker) -> None:
        self.cluster = cluster
        self.broker = broker

    def run(self, jobs: Sequence[SimulatedJob], *, max_backlog: Optional[int] = None):
        from repro.scheduler.simulator import SimulationResult

        jobs = list(jobs)
        queue = EventQueue()
        for job in jobs:
            queue.push(Event(job.arrival_time, EventType.JOB_ARRIVAL, job))

        backlog: List[SimulatedJob] = []
        start_times: Dict[int, float] = {}
        finish_times: Dict[int, float] = {}
        runtimes: Dict[int, float] = {}
        site_of_job: Dict[int, str] = {}
        now = 0.0
        site_states = list(self.cluster.sites.values())
        free_max = max((s.free_cores for s in site_states), default=0)
        backlog_min_cores = float("inf")

        def try_dispatch(time: float) -> None:
            nonlocal free_max, backlog_min_cores
            if free_max < backlog_min_cores:
                return
            still_waiting: List[SimulatedJob] = []
            for pos, job in enumerate(backlog):
                if free_max < backlog_min_cores:
                    still_waiting.extend(backlog[pos:])
                    break
                if job.cores > free_max:
                    still_waiting.append(job)
                    continue
                site_name = self.broker.select_site(job, self.cluster)
                if site_name is None:
                    still_waiting.append(job)
                    continue
                state = self.cluster[site_name]
                state.allocate(job.cores, time)
                free_max = max(s.free_cores for s in site_states)
                runtime_hours = job.runtime_at(state.site.hs23_per_core)
                start_times[job.job_id] = time
                runtimes[job.job_id] = runtime_hours
                site_of_job[job.job_id] = site_name
                queue.push(
                    Event(time + runtime_hours / _HOURS_PER_DAY, EventType.JOB_FINISH, job)
                )
            backlog[:] = still_waiting
            if not backlog:
                backlog_min_cores = float("inf")

        while queue:
            event = queue.pop()
            now = event.time
            job = event.payload
            if event.kind is EventType.JOB_ARRIVAL:
                backlog.append(job)
                backlog_min_cores = min(backlog_min_cores, job.cores)
                if max_backlog is not None and len(backlog) > max_backlog:
                    raise RuntimeError(
                        f"backlog exceeded {max_backlog} jobs; the cluster is undersized"
                    )
                try_dispatch(now)
            elif event.kind is EventType.JOB_FINISH:
                site_name = site_of_job[job.job_id]
                state = self.cluster[site_name]
                state.release(job.cores, now)
                state.completed_jobs += 1
                free_max = max(free_max, state.free_cores)
                finish_times[job.job_id] = now
                try_dispatch(now)

        horizon = max(now, 1e-9)
        for state in self.cluster.sites.values():
            state.advance_to(horizon)
        completed = sorted(finish_times.keys())
        jobs_by_id = {job.job_id: job for job in jobs}
        wait_hours = np.array(
            [(start_times[j] - jobs_by_id[j].arrival_time) * _HOURS_PER_DAY for j in completed]
        )
        runtime_hours = np.array([runtimes[j] for j in completed]) if completed else np.empty(0)
        return SimulationResult(
            broker=self.broker.name,
            n_jobs=len(jobs),
            n_completed=len(completed),
            makespan_days=float(horizon - min((j.arrival_time for j in jobs), default=0.0)),
            mean_wait_hours=float(wait_hours.mean()) if wait_hours.size else 0.0,
            p95_wait_hours=float(np.percentile(wait_hours, 95)) if wait_hours.size else 0.0,
            mean_runtime_hours=float(runtime_hours.mean()) if runtime_hours.size else 0.0,
            utilization_by_site=self.cluster.utilization_by_site(horizon),
            wait_times_hours=wait_hours,
        )


# ---------------------------------------------------------------------------
# 8. Table-I fidelity path: the quadratic WD quantile grid and the one-hot
#    KD-tree neighbour searches of SMOTE fit and DCR.
# ---------------------------------------------------------------------------


def seed_wasserstein_1d(real: np.ndarray, synthetic: np.ndarray, *, normalize: bool = True) -> float:
    """The seed WD: ``np.quantile`` on an n-sized grid (O(n²) partitions)."""
    a = np.asarray(real, dtype=np.float64)
    b = np.asarray(synthetic, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    if normalize:
        lo, hi = float(a.min()), float(a.max())
        span = hi - lo if hi > lo else 1.0
        a = (a - lo) / span
        b = (b - lo) / span
    # Closed form via the quantile functions: integrate |F_a^{-1} - F_b^{-1}|.
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    # Evaluate both quantile functions on a merged probability grid.
    probs = np.linspace(0.0, 1.0, max(a.size, b.size), endpoint=False) + 0.5 / max(a.size, b.size)
    qa = np.quantile(a_sorted, probs)
    qb = np.quantile(b_sorted, probs)
    return float(np.mean(np.abs(qa - qb)))


def seed_smote_neighbors(
    table: Table, k_neighbors: int = 5, categorical_weight: float = 1.0
) -> np.ndarray:
    """The seed ``SMOTESurrogate.fit`` neighbour search: a KD-tree over the
    transformed numericals plus scaled one-hot categoricals."""
    encoder = MixedEncoder()
    encoder.fit(table)
    num, _cat = encoder.transform_codes(table)

    # Nearest-neighbour search space: transformed numericals plus scaled
    # one-hot categoricals (so mixed-type distances are balanced).
    onehot = encoder.transform(table).values
    cat_cols = encoder.blocks_ if encoder.blocks_ else []
    search = [num]
    for block in cat_cols:
        if block.kind.value == "categorical":
            search.append(onehot[:, block.slice] * categorical_weight / np.sqrt(2.0))
    search_matrix = np.concatenate(search, axis=1)

    k = min(k_neighbors + 1, len(table))
    tree = cKDTree(search_matrix)
    _, neighbor_idx = tree.query(search_matrix, k=k)
    if neighbor_idx.ndim == 1:
        neighbor_idx = neighbor_idx[:, None]
    # Drop the self-match in the first column when present.
    return neighbor_idx[:, 1:] if neighbor_idx.shape[1] > 1 else neighbor_idx


#: One-hot blocks are scaled so a category mismatch contributes a unit
#: distance, commensurate with a full-range numerical mismatch.
_SEED_CATEGORY_SCALE = 1.0 / np.sqrt(2.0)


class SeedTableEmbedder:
    """The seed DCR embedding: min-max numericals plus scaled one-hot blocks
    over the union of categories seen across all tables."""

    def __init__(self, columns: Optional[Sequence[str]] = None) -> None:
        self.columns = list(columns) if columns is not None else None
        self.columns_: Optional[List[str]] = None
        self.ranges_: Optional[Dict[str, Tuple[float, float]]] = None
        self.encoders_: Optional[Dict[str, OneHotEncoder]] = None

    def fit(self, reference: Table, *others: Table) -> "SeedTableEmbedder":
        """Learn scaling from ``reference`` and categories from all tables."""
        cols = self.columns if self.columns is not None else reference.columns
        ranges: Dict[str, Tuple[float, float]] = {}
        encoders: Dict[str, OneHotEncoder] = {}
        for name in cols:
            if reference.schema.kind_of(name).value == "numerical":
                ref_col = np.asarray(reference[name], dtype=np.float64)
                lo, hi = float(ref_col.min()), float(ref_col.max())
                span = hi - lo if hi > lo else 1.0
                ranges[name] = (lo, span)
            else:
                encoder = OneHotEncoder()
                encoder.fit(np.concatenate([reference[name]] + [t[name] for t in others]))
                encoders[name] = encoder
        self.columns_ = list(cols)
        self.ranges_ = ranges
        self.encoders_ = encoders
        return self

    def transform(self, table: Table) -> np.ndarray:
        """Embed ``table`` (or any chunk of it) into the fitted space."""
        parts: List[np.ndarray] = []
        for name in self.columns_:
            if name in self.ranges_:
                lo, span = self.ranges_[name]
                col = np.asarray(table[name], dtype=np.float64)
                parts.append(((col - lo) / span)[:, None])
            else:
                parts.append(self.encoders_[name].transform(table[name]) * _SEED_CATEGORY_SCALE)
        return np.concatenate(parts, axis=1)


def seed_nearest_record_distances(
    training: Table,
    synthetic: Table,
    columns: Optional[Sequence[str]] = None,
    *,
    chunk_size: Optional[int] = None,
) -> np.ndarray:
    """The seed DCR distances: one KD-tree over the one-hot embedding."""
    if len(training) == 0 or len(synthetic) == 0:
        raise ValueError("both tables must be non-empty")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError("chunk_size must be a positive integer")
    embedder = SeedTableEmbedder(columns).fit(training, synthetic)
    tree = cKDTree(embedder.transform(training))
    n = len(synthetic)
    if chunk_size is None or chunk_size >= n:
        distances, _ = tree.query(embedder.transform(synthetic), k=1)
        return np.asarray(distances, dtype=np.float64)
    distances = np.empty(n, dtype=np.float64)
    for start in range(0, n, chunk_size):
        chunk = synthetic.take(np.arange(start, min(start + chunk_size, n)))
        distances[start : start + len(chunk)], _ = tree.query(embedder.transform(chunk), k=1)
    return distances


# ---------------------------------------------------------------------------
# 9. Decoding: the quantile inverse by binary search over the knots.
# ---------------------------------------------------------------------------

from scipy import special  # noqa: E402


def seed_quantile_inverse(transform, values) -> np.ndarray:
    """The seed ``GaussianQuantileTransform.inverse_transform``: ``np.interp``
    finds each probability's knot interval by binary search."""
    arr = np.asarray(values, dtype=np.float64)
    prob = special.ndtr(arr)
    prob = np.clip(prob, 0.0, 1.0)
    return np.interp(prob, transform.references_, transform.quantiles_)
