"""repro — reproduction of "AI Surrogate Model for Distributed Computing Workloads" (SC 2024).

The package provides, end to end:

* a synthetic PanDA/ATLAS workload substrate (:mod:`repro.panda`),
* a mixed-type tabular data layer (:mod:`repro.tabular`),
* a numpy neural-network framework (:mod:`repro.nn`),
* the four generative surrogates of the paper plus extra baselines
  (:mod:`repro.models`),
* the five evaluation metric families of Table I (:mod:`repro.metrics`),
* a gradient-boosting regressor used by the efficacy metric
  (:mod:`repro.boosting`),
* a discrete-event grid simulator demonstrating the downstream use of
  synthetic workloads (:mod:`repro.scheduler`),
* the experiment harness regenerating every table and figure
  (:mod:`repro.experiments`), and
* a sharded, multi-process sampling service with a model registry
  (:mod:`repro.serve`).

Quickstart
----------
>>> from repro import PandaWorkloadGenerator, GeneratorConfig, create_surrogate
>>> from repro.tabular import train_test_split
>>> gen = PandaWorkloadGenerator(GeneratorConfig(n_jobs=5000, seed=1))
>>> table = gen.generate_training_table()
>>> train, test = train_test_split(table, 0.2, seed=1)
>>> model = create_surrogate("smote")
>>> synthetic = model.fit(train).sample(len(train), seed=2)

Performance
-----------
The hottest loops run through a vectorized engine:

* **boosting** — the histogram tree builds all per-feature histograms with a
  single flattened ``np.bincount`` per node, derives each sibling histogram
  as parent-minus-scanned-child, and routes predictions through packed node
  arrays instead of Python node objects; feature binning is one stacked
  ``np.searchsorted`` plus a rank table, with no per-feature loop
  (:mod:`repro.boosting.tree`);
* **metrics** — the association matrix integer-codes every column once and
  fills both Theil directions of a categorical pair from one contingency
  table, with the numerical block as a single BLAS Gram product
  (:func:`repro.metrics.correlation.association_matrix`);
* **panda** — the generator draws every categorical column as integer
  codes into its catalog and builds it once
  (:meth:`repro.tabular.table.CategoricalColumn.from_codes`); the filtering
  funnel masks by code and parses only the dataset names of the vocabulary
  (:func:`repro.panda.daod.parse_dataset_name`), so neither creates a
  per-row string;
* **scheduler** — the grid simulator keeps free-slot watermarks next to its
  event heap so a saturated backlog is never rescanned with brokerage calls
  (:mod:`repro.scheduler.simulator`), and the cluster maintains a
  lazily-invalidated free-core heap so least-loaded brokerage is O(log
  sites) per placement with stable, dict-order-independent tie-breaking
  (:mod:`repro.scheduler.cluster`, :mod:`repro.scheduler.broker`);
* **nn / models** — the deep surrogates (TVAE, CTABGAN+, TabDDPM) train
  through fused autograd: one graph node per Linear+activation pair with
  pre-allocated gradient buffers (:class:`repro.nn.layers.FusedLinear`),
  fused mixed losses / block activations / VAE heads that replace the
  per-encoded-column slice nodes (:mod:`repro.nn.fused`), flat-buffer
  in-place Adam/SGD steps (:mod:`repro.nn.optim`), encode-once minibatching
  and a fully vectorised multinomial diffusion step
  (:mod:`repro.models.tabddpm.multinomial`).  Every fused path is
  bit-identical to the unfused composition — same losses, parameters and
  samples for a fixed seed (``tests/test_train_equivalence.py``);
* **sampling / encoding** — mode-specific normalisation fits its per-column
  Gaussian mixtures through a duplicate-value-compressed Lloyd/EM
  (:mod:`repro.mixture.gmm`), the TabDDPM reverse chain denoises every
  same-width categorical block as one lane-grouped plane pass per step
  (:meth:`repro.models.tabddpm.multinomial.MultinomialBlockDiffusion.p_sample_into`),
  and CTABGAN+ draws its block categories straight from the stacked raw
  generator logits (:mod:`repro.models.ctabgan`) — all bit-identical to the
  per-block chains in the default mode
  (``tests/test_sampling_equivalence.py``).

Serving modes
-------------
Every surrogate's ``sample`` accepts ``sampling_mode="exact"|"fast"``:

* **exact** (default) — bit-identical to the seed implementation for a fixed
  seed; the mode experiments and paper artefacts use.
* **fast** — the relaxed serving mode: the same fitted model and the same
  output *distribution* (KS / chi-squared-validated against exact-mode
  samples in ``tests/test_serving_modes.py``), but a different RNG stream
  and float32 pre-packed network forwards
  (:class:`repro.nn.serving.PackedForward`).  TabDDPM serves its denoiser
  through a float32 weight cache and a padded lane-plane posterior kernel;
  CTABGAN+/TVAE run request-sized fused generator/decoder forwards freed
  from the training batch size; SMOTE and the Gaussian copula (already
  single-pass) fall back to their exact path.

``Surrogate.sample_batches(n, chunk_size)`` streams a request of any size in
bounded-memory chunks (one ``SeedSequence`` child stream per chunk), so
million-row serving requests never materialise at once.

Serving architecture (:mod:`repro.serve`)
-----------------------------------------
The serving layer stacks three pieces on the streaming API:

* :class:`~repro.serve.ShardedSampler` fans a request's ``sample_batches``
  chunks across a persistent pool of worker processes, each holding a
  deserialized model snapshot with warmed caches, and reassembles the chunks
  in order.  **The sharding contract:** because chunk ``i`` draws from the
  ``i``-th ``SeedSequence`` child of the request seed, the output bytes for
  a given ``(seed, chunk_size)`` are identical for any worker count
  (including the pool-free ``workers=1`` path) and equal to the
  single-process ``sample_batches`` concatenation — sharding changes wall
  clock, never data (``tests/test_serve_sharded.py``).
* :class:`~repro.serve.ModelRegistry` stores fitted-surrogate snapshots
  under versioned names (``<root>/<name>/vN.pkl``) and warm-starts the
  packed serving caches at registration/load
  (:meth:`~repro.models.base.Surrogate.warm_serving_caches`), so a restarted
  server answers its first request at steady-state latency.
* :class:`~repro.serve.SamplingService` is the front end: a thread-safe
  request queue whose dispatcher pipelines requests over the pool (it
  refills the pool from the fair queue each time it delivers a request —
  invisible in the bytes because every request keeps its own seed's chunk
  streams, it only removes queueing latency), backpressure via a bounded
  in-flight row budget, and a ``stats()`` endpoint (rows/s, queue depth,
  p50/p95 latency).

``repro-experiments serve`` drives the stack end to end;
``examples/serving_throughput.py`` is the narrated tour.  Throughput is
recorded by the ``serve_sharded_tvae`` / ``serve_sharded_tabddpm`` kernels
in ``benchmarks/BENCH_hotpaths.json`` (one in-process fast-mode worker as the
baseline; see ``benchmarks/README.md`` for the contract).

Degenerate inputs —
constant numerical columns, single-category columns, ``sample(0)``,
3-row training tables — are first-class: ``tests/test_degenerate_inputs.py``
runs every surrogate and the metrics layer over them with RuntimeWarnings
promoted to errors.

``benchmarks/bench_hotpaths.py`` times every kernel against the seed
implementation at two problem sizes and writes ``BENCH_hotpaths.json``;
``benchmarks/check_regression.py`` fails when a kernel regresses more than 2x
against the committed baseline (``python -m benchmarks.ci`` chains it after
the test suite), and ``tests/test_perf_equivalence.py`` proves the optimized
kernels reproduce the seed outputs.  See ``benchmarks/README.md`` for the
harness, baseline and re-baselining policy.  Every kernel is timed by
:meth:`repro.utils.profiling.BenchmarkRegistry.measure`: seed and optimized
variants alternate round by round with equal repeats.

Continuous integration
----------------------
Hosted CI (``.github/workflows/ci.yml`` — badge:
``https://github.com/<org>/<repo>/actions/workflows/ci.yml/badge.svg``) runs
three jobs on every push and pull request: ruff lint, the tier-1 pytest
suite across Python 3.10–3.12, and the hot-path perf gate with a
CI-loosened threshold (``python -m benchmarks.ci --skip-tests --factor 3``).
"""

from repro.panda import GeneratorConfig, PandaWorkloadGenerator, FilteringPipeline, PANDA_SCHEMA
from repro.tabular import Table, TableSchema, train_test_split
from repro.models import (
    CTABGANPlusSurrogate,
    GaussianCopulaSurrogate,
    SMOTESurrogate,
    Surrogate,
    TVAESurrogate,
    TabDDPMSurrogate,
    available_surrogates,
    create_surrogate,
)
from repro.metrics import SurrogateScore, evaluate_surrogate_data, format_table

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "PandaWorkloadGenerator",
    "GeneratorConfig",
    "FilteringPipeline",
    "PANDA_SCHEMA",
    "Table",
    "TableSchema",
    "train_test_split",
    "Surrogate",
    "SMOTESurrogate",
    "GaussianCopulaSurrogate",
    "TVAESurrogate",
    "CTABGANPlusSurrogate",
    "TabDDPMSurrogate",
    "available_surrogates",
    "create_surrogate",
    "SurrogateScore",
    "evaluate_surrogate_data",
    "format_table",
]
