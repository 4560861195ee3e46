"""Table-I workloads: ``table1-ci``, ``table1-neural`` and ``fidelity-14k``.

The timed operation is the program's own entry point,
``repro.experiments.table1.run_table1``: dataset build, split, fit, sample
and the five Table-I metrics, closed loop, one run at a time.  The traced
run repeats the same pipeline step by step through the layers' public
functions, with a span around each call, and must reproduce the entry
point's scores exactly — so the per-stage numbers describe the very
computation that was timed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from harness import PeakRss, Result, SpanLog, breakdown, check, median
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import DatasetBundle, build_dataset
from repro.experiments.table1 import build_model, run_table1
from repro.metrics.correlation import diff_corr
from repro.metrics.distribution import mean_jsd, mean_wasserstein
from repro.metrics.mlef import diff_mlef
from repro.metrics.privacy import distance_to_closest_record
from repro.panda.generator import GeneratorConfig, PandaWorkloadGenerator
from repro.panda.pipeline import FilteringPipeline
from repro.tabular.splits import train_test_split
from repro.tabular.table import Table
from repro.utils.rng import derive_seed

WORKLOADS = ("table1-ci", "table1-neural", "fidelity-14k")

#: Surrogate registry name → the layer name used in metric names.
MODEL_LAYERS = {"tvae": "tvae", "ctabgan+": "ctabgan", "smote": "smote", "tabddpm": "tabddpm"}
METRIC_STAGES = ("wd", "jsd", "corr", "dcr", "mlef")
#: Stages whose scaling exponent ``fidelity-14k`` reports (span name → metric).
EXPONENT_STAGES = {
    "metrics.wd": "metrics.wd.exp",
    "metrics.dcr": "metrics.dcr.exp",
    "models.smote.fit": "models.smote.fit.exp",
    "metrics.mlef": "metrics.mlef.exp",
}

SETUP_REPEATS = 5
#: The warm-up's fixed dataset: 3k raw jobs yield >= 960 rows on any seed.
WARMUP_RAW_JOBS = 3_000
WARMUP_ROWS = (600, 150)

Scores = List[Tuple[float, float, float, float, float]]


@dataclass(frozen=True)
class Workload:
    """A Table-I configuration on a fixed-size dataset.

    The filtering funnel keeps 32-49% of raw jobs depending on the seed, so
    the split's size would swing by +-20% (and super-linear stages by
    +-35%) from seed to seed.  Each workload therefore generates enough raw
    jobs for any seed and keeps exactly ``rows`` = (train, test) rows by a
    seeded subsample: the seed changes which rows, never how many.
    """

    config: ExperimentConfig
    rows: Tuple[int, int]

    def half(self) -> "Workload":
        """Half the raw jobs and half the kept rows: the scaling-exponent pass."""
        config = replace(self.config, n_raw_jobs=self.config.n_raw_jobs // 2)
        return Workload(config, (self.rows[0] // 2, self.rows[1] // 2))


def workload(name: str, seed: int) -> Workload:
    ci = ExperimentConfig.ci()
    if name == "table1-ci":
        # The CI preset on 2.8k train rows; 10.5k raw jobs yield >= 3.3k.
        return Workload(replace(ci, seed=seed, n_raw_jobs=10_500), (2_800, 700))
    if name == "table1-neural":
        # The CI preset's three neural surrogates (same networks, batch size
        # and epochs) on 600 train rows, so one run holds about eight
        # Table-I runs; 2.7k raw jobs yield >= 860.
        config = replace(
            ci,
            seed=seed,
            n_raw_jobs=2_700,
            models=("tvae", "ctabgan+", "tabddpm"),
            n_synthetic=600,
        )
        return Workload(config, (600, 150))
    if name == "fidelity-14k":
        # SMOTE only, as many synthetic rows as training rows; 60k raw jobs
        # yield >= 19k.
        config = replace(ci, seed=seed, n_raw_jobs=60_000, models=("smote",), n_synthetic=None)
        return Workload(config, (14_000, 3_500))
    raise ValueError(f"not a Table-I workload: {name}")


def split(table: Table, work: Workload) -> Tuple[Table, Table]:
    """``build_dataset``'s split, then the workload's fixed-size subsample."""
    seed = work.config.seed
    train, test = train_test_split(table, work.config.test_fraction, seed=derive_seed(seed, "split"))
    n_train, n_test = work.rows
    return (
        train.sample(n_train, seed=derive_seed(seed, "train-rows")),
        test.sample(n_test, seed=derive_seed(seed, "test-rows")),
    )


def build(work: Workload) -> DatasetBundle:
    """``build_dataset`` with the split resized to the workload's rows."""
    data = build_dataset(work.config)
    train, test = split(data.table, work)
    return replace(data, train=train, test=test)


def run_entry(work: Workload) -> Dict[str, object]:
    """The timed operation: ``run_table1`` on the resized dataset (the
    dataset build stays inside the timing)."""
    return run_table1(work.config, dataset=build(work))


def warmup(work: Workload) -> None:
    """One Table-I run of the same models for one epoch on a small dataset:
    fills lazy caches and allocator pools so the first timed run is not the
    slowest.  Its dataset has a fixed size, like the timed runs', so its
    time does not follow the seed's funnel yield."""
    config = replace(
        work.config,
        n_raw_jobs=WARMUP_RAW_JOBS,
        n_synthetic=300,
        tvae=replace(work.config.tvae, epochs=1),
        ctabgan=replace(work.config.ctabgan, epochs=1),
        tabddpm=replace(work.config.tabddpm, epochs=1),
        mlef=replace(work.config.mlef, n_estimators=4),
    )
    run_table1(config, dataset=build(Workload(config, WARMUP_ROWS)))


def _entry_scores(result: Dict[str, object]) -> Scores:
    return [
        (s.wd, s.jsd, s.diff_corr, s.dcr, s.diff_mlef)  # type: ignore[attr-defined]
        for s in result["scores"]  # type: ignore[union-attr]
    ]


def _check_scores(scores: Scores, n_models: int) -> None:
    check(len(scores) == n_models, f"expected {n_models} score rows, got {len(scores)}")
    for row in scores:
        check(all(math.isfinite(value) for value in row), f"non-finite Table-I score {row}")
        check(row[3] >= 0.0, f"negative DCR {row[3]}")


def traced_dataset(work: Workload, spans: SpanLog) -> Tuple[int, Table, Table]:
    """``build_dataset`` step by step: (raw-job count, train, test)."""
    config = work.config

    def generate():
        generator = PandaWorkloadGenerator(
            GeneratorConfig(n_jobs=config.n_raw_jobs, n_days=config.n_days, seed=config.seed)
        )
        return generator, generator.generate_raw()

    generator, raw = spans.timed("panda.generate", generate)
    table, _ = spans.timed("panda.funnel", FilteringPipeline(generator.sites).run, raw)
    train, test = spans.timed("tabular.split", split, table, work)
    return len(raw), train, test


def traced_pipeline(work: Workload, spans: SpanLog) -> Tuple[Scores, int, int]:
    """``run_entry`` step by step with a span around every layer call.

    Returns the score rows plus the raw-job and training-row counts.
    Checks every synthetic table's row count and schema on the way.
    """
    config = work.config
    raw_jobs, train, test = traced_dataset(work, spans)
    n_synthetic = config.n_synthetic or len(train)
    scores: Scores = []
    for name in config.models:
        layer = f"models.{MODEL_LAYERS[name]}"
        model = build_model(name, config)
        spans.timed(f"{layer}.fit", model.fit, train)
        synthetic = spans.timed(
            f"{layer}.sample",
            model.sample,
            n_synthetic,
            seed=derive_seed(config.seed, "sample", name),
            sampling_mode="exact",
        )
        check(len(synthetic) == n_synthetic, f"{name}: {len(synthetic)} rows, wanted {n_synthetic}")
        check(synthetic.schema == train.schema, f"{name}: synthetic schema differs from train")
        wd, _ = spans.timed("metrics.wd", mean_wasserstein, train, synthetic)
        jsd, _ = spans.timed("metrics.jsd", mean_jsd, train, synthetic)
        corr = spans.timed("metrics.corr", diff_corr, train, synthetic)
        dcr = spans.timed("metrics.dcr", distance_to_closest_record, train, synthetic)
        mlef = spans.timed(
            "metrics.mlef",
            diff_mlef,
            train,
            synthetic,
            test,
            config.mlef,
            seed=derive_seed(config.seed, "mlef", name),
        )
        scores.append((wd, jsd, corr, dcr, mlef))
    return scores, raw_jobs, len(train)


def stage_seconds(spans: SpanLog) -> Dict[str, float]:
    names = ["panda.generate", "panda.funnel", "tabular.split"]
    for name in MODEL_LAYERS.values():
        names += [f"models.{name}.fit", f"models.{name}.sample"]
    names += [f"metrics.{stage}" for stage in METRIC_STAGES]
    return {name: spans.total(name) for name in names}


def measure(name: str, seed: int, seconds: float, import_s: float) -> Result:
    """Untraced closed loop: Table-I runs back to back for ``seconds``.

    Set-up (one warm-up run on small data) is repeated ``SETUP_REPEATS``
    times; ``setup_s`` is the import time plus the median repeat.
    """
    work = workload(name, seed)
    n_models = len(work.config.models)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        warmup(work)
        setups.append(time.perf_counter() - t0)
    result = Result()

    peak = PeakRss()
    runs: List[float] = []
    reference: Scores = []
    rows_per_run = 0
    loop_start = time.perf_counter()
    while len(runs) < 2 or (time.perf_counter() - loop_start) + median(runs) <= seconds:
        t0 = time.perf_counter()
        out = run_entry(work)
        runs.append(time.perf_counter() - t0)
        result.attempted += 1
        scores = _entry_scores(out)
        _check_scores(scores, n_models)
        rows_per_run = int(out["n_synthetic"]) * n_models  # type: ignore[arg-type]
        if not reference:
            reference = scores
        check(scores == reference, "repeated Table-I runs at one seed gave different scores")
        peak.sample()

    # Outside the timed region: the step-by-step pipeline must reproduce the
    # entry point's scores (and checks every synthetic row count).
    replay, _, _ = traced_pipeline(work, SpanLog())
    check(replay == reference, "step-by-step pipeline disagrees with run_table1")

    wall = median(runs)
    result.put("setup_s", import_s + median(setups), "s")
    result.put("wall_s", wall, "s")
    # Synthetic rows sampled and scored per median run: wall_s restated.
    result.put("rows_per_s", rows_per_run / wall, "rows/s")
    result.put("peak_rss_mb", peak.value, "MiB")
    result.note(
        f"table1 runs={len(runs)} wall_s={[round(r, 3) for r in runs]} "
        f"setup_repeats_s={[round(s, 3) for s in setups]} imports_s={import_s:.3f}"
    )
    return result


def measure_traced(name: str, seed: int, seconds: float) -> Result:
    """Untraced, traced, untraced (the overhead is the traced run against the
    mean of the two untraced ones), plus the per-stage breakdown."""
    work = workload(name, seed)
    warmup(work)
    result = Result()

    def untraced_run() -> Tuple[Scores, float]:
        t0 = time.perf_counter()
        scores = _entry_scores(run_entry(work))
        return scores, time.perf_counter() - t0

    reference, first = untraced_run()
    _check_scores(reference, len(work.config.models))
    spans = SpanLog()
    t0 = time.perf_counter()
    scores, raw_jobs, train_rows = traced_pipeline(work, spans)
    traced = time.perf_counter() - t0
    check(scores == reference, "traced pipeline disagrees with run_table1")
    again, second = untraced_run()
    check(again == reference, "repeated Table-I runs at one seed gave different scores")
    untraced = (first + second) / 2
    result.attempted = 3

    stages = stage_seconds(spans)
    rows = breakdown(traced, stages)
    for stage, value in stages.items():
        result.put(f"{stage}_s", value, "s")
    result.put("table1.total_s", traced, "s")
    result.put("table1.unaccounted_s", rows["unaccounted"], "s")
    result.put("panda.raw_jobs", raw_jobs, "count")
    result.put("tabular.train_rows", train_rows, "count")
    result.put("obs.trace_overhead_pct", 100.0 * (traced - untraced) / untraced, "%")
    result.put("obs.spans_per_request", len(spans.spans), "count")

    if name == "fidelity-14k":
        half_spans = SpanLog()
        _, _, half_rows = traced_pipeline(work.half(), half_spans)
        result.attempted += 1
        doublings = math.log2(train_rows / half_rows)
        for span_name, metric in EXPONENT_STAGES.items():
            full, half = spans.total(span_name), half_spans.total(span_name)
            result.put(metric, math.log2(full / half) / doublings, "ratio")
        result.note(f"half-size pass: train_rows {half_rows} vs {train_rows}")

    result.note(f"table1 breakdown (traced total {traced:.3f}s, untraced mean {untraced:.3f}s):")
    for stage, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        if value:
            result.note(f"  {stage:<24} {value:9.4f} s  {100 * value / traced:5.1f}%")
    return result
