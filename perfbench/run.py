"""The repo benchmark: one command per workload.

    python3 perfbench/run.py --workload table1-neural --seed 1 --seconds 20 --trace 0

Run from the root of a repository checkout (the library is imported from
``src/``).  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` is a separate traced run that reports the per-layer metrics.
Human-readable lines go to stdout first (including a ``meta`` line with the
machine description); the last line is one JSON object::

    {"correct": true, "attempted": 2, "failed": 0,
     "metrics": {"wall_s": {"value": 7.1, "unit": "s"}, ...}}

A failed output check prints ``"correct": false`` and exits 1.  See
``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# The benchmark must leave the checkout as it found it: no __pycache__
# directories, from this process or from its pool workers.
sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

WORKLOADS = ("table1-ci", "table1-neural", "fidelity-14k", "serve-bulk", "serve-mixed", "serve-stream")

#: Printed by every workload with ``--trace 0`` (see README for the
#: per-workload meaning of each).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

#: End-to-end metrics a workload does not measure, because there they are
#: another metric under a second name: (alias, source, factor), applied in
#: order when the alias is missing.
ALIASES = (
    # Table I: a run is the request, and its few runs support no tail.
    ("latency_p50_ms", "wall_s", 1e3),
    ("latency_p95_ms", "latency_p50_ms", 1.0),
    # Closed-loop serving: the median request.
    ("wall_s", "latency_p50_ms", 1e-3),
)

#: Printed by every workload with ``--trace 1``; a layer the workload does
#: not exercise reports 0.
PER_LAYER = (
    ("panda.generate_s", "s"),
    ("panda.funnel_s", "s"),
    ("tabular.split_s", "s"),
    ("panda.raw_jobs", "count"),
    ("tabular.train_rows", "count"),
    ("models.tvae.fit_s", "s"),
    ("models.tvae.sample_s", "s"),
    ("models.ctabgan.fit_s", "s"),
    ("models.ctabgan.sample_s", "s"),
    ("models.smote.fit_s", "s"),
    ("models.smote.sample_s", "s"),
    ("models.tabddpm.fit_s", "s"),
    ("models.tabddpm.sample_s", "s"),
    ("metrics.wd_s", "s"),
    ("metrics.jsd_s", "s"),
    ("metrics.corr_s", "s"),
    ("metrics.dcr_s", "s"),
    ("metrics.mlef_s", "s"),
    ("table1.total_s", "s"),
    ("table1.unaccounted_s", "s"),
    ("metrics.wd.exp", "ratio"),
    ("metrics.dcr.exp", "ratio"),
    ("models.smote.fit.exp", "ratio"),
    ("metrics.mlef.exp", "ratio"),
    ("models.sample_fast_s", "s"),
    ("serve.served_wall_s", "s"),
    ("serve.parallel_efficiency", "ratio"),
    ("serve.submit_ms", "ms"),
    ("serve.submit_p95_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "rows"),
    ("sharded.chunks", "count"),
    ("sharded.retries", "count"),
    ("sharded.timeouts", "count"),
    ("sharded.hedges", "count"),
    ("sharded.useful_attempt_ratio", "ratio"),
    ("pool.restarts", "count"),
    ("pool.workers", "count"),
    ("serve.chunk_size", "rows"),
    ("shm.chunks", "count"),
    ("shm.bytes_per_chunk", "B"),
    ("serve.request_s", "s"),
    ("serve.admission_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.dispatch_s", "s"),
    ("serve.shm_decode_s", "s"),
    ("serve.assemble_s", "s"),
    ("serve.deliver_s", "s"),
    ("serve.worker_compute_s", "s"),
    ("serve.shm_encode_s", "s"),
    ("serve.unaccounted_s", "s"),
    ("admission.rejected", "count"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_per_request", "count"),
)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(workload: str, seed: int, seconds: float, trace: bool, import_s: float):
    import pipeline
    import serving

    if workload in pipeline.WORKLOADS:
        if trace:
            return pipeline.measure_traced(workload, seed, seconds)
        return pipeline.measure(workload, seed, seconds, import_s)
    if workload == "serve-stream":
        if trace:
            return serving.measure_stream_traced(seed, seconds)
        return serving.measure_stream(seed, seconds, import_s)
    work = serving.CLOSED[workload]
    if trace:
        return serving.measure_closed_traced(work, seed, seconds)
    return serving.measure_closed(work, seed, seconds, import_s)


def _metrics_payload(result, trace: bool):
    catalogue = dict(PER_LAYER if trace else END_TO_END)
    measured = dict(result.metrics)
    unknown = sorted(set(measured) - set(catalogue))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalogue: {unknown}")
    if not trace:
        for alias, source, factor in ALIASES:
            if alias not in measured and source in measured:
                measured[alias] = (measured[source][0] * factor, catalogue[alias])
    payload = {}
    for name, unit in catalogue.items():
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                raise RuntimeError(f"{name}: unit {measured_unit!r}, catalogue says {unit!r}")
        elif trace:
            value = 0.0  # the workload does not exercise this layer
        else:
            raise RuntimeError(f"end-to-end metric {name} was not measured")
        payload[name] = {"value": value, "unit": unit}
    return payload


def _stop_helpers() -> None:
    """Stop multiprocessing's resource tracker (started for shared memory)
    and wait for it, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"perfbench: {SRC}/repro not found; run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import harness
    import pipeline  # noqa: F401 - imported here so import time counts as set-up
    import serving  # noqa: F401
    from repro.serve.sharded import ShardedSampler
    from repro.utils.parallel import available_workers

    import_s = time.perf_counter() - _STARTED
    correct, result = True, None
    try:
        result = _run(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
        metrics = _metrics_payload(result, bool(args.trace))
    except harness.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    finally:
        _stop_helpers()
    leftovers = harness.live_children()
    if leftovers:
        raise RuntimeError(f"child processes still running: {leftovers}")

    meta = harness.machine_meta(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        workers=available_workers(None),
        chunk_size=ShardedSampler.DEFAULT_CHUNK_SIZE,
    )
    if result is not None:
        meta.update(result.meta)
    print("meta " + json.dumps(meta, sort_keys=True))
    attempted = max(1, result.attempted) if result is not None else 1
    failed = result.failed if result is not None else attempted
    lost = failed + (result.refused if result is not None else 0)
    print(f"error_share {lost}/{attempted} = {lost / attempted:.4f} (failed + refused)")
    for name, entry in metrics.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:  # noqa: BLE001 - report, then fail without a result line
        traceback.print_exc()
        sys.exit(3)
