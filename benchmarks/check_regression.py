#!/usr/bin/env python
"""Perf-regression gate: compare fresh hot-path timings against the committed
baseline and fail on a large slowdown.

Intended as a tier-2 step next to the test suite::

    PYTHONPATH=src python -m pytest -x -q
    PYTHONPATH=src python benchmarks/check_regression.py

Without ``--fresh``, the benchmarks are (re)run in quick mode and compared
against the committed ``BENCH_hotpaths.json``.  The gate fails (exit 1) when
any optimized kernel is more than ``--threshold * --factor`` times slower
than the baseline measurement of the same kernel/size — naming the offending
kernel(s) in the failure message — and warns (but passes) on timings for
kernel/size pairs missing from the baseline.  It also fails when the
worker pool is slower than one in-process worker (``serve_scaling``).
``--factor`` exists for noisy or slower machines: hosted CI runs use a
looser factor (see ``.github/workflows/ci.yml``) so only gross regressions
fail remotely while local runs keep the tight default.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.utils.profiling import BenchmarkRegistry  # noqa: E402

BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_hotpaths.json")

#: Every kernel the gate must see an ``optimized`` measurement for.  A fresh
#: run that silently drops one of these (e.g. a refactor renames a kernel or
#: skips the serving-mode benchmarks) fails the gate instead of shrinking its
#: coverage.
REQUIRED_KERNELS = frozenset(
    {
        "gbdt_fit",
        # MLEF's ordered target encoding on the five PanDA categorical
        # columns: codes and one cumsum per category against the seed's
        # row-by-row loop (see bench_hotpaths.bench_target_encoding).
        "target_encoding",
        "association_matrix",
        "pipeline_funnel",
        # The PanDA raw generator: codes into the catalogs against the
        # seed's per-row strings (see bench_hotpaths.bench_generate; the
        # larger size's records carry scaling exponents).
        "panda_generate",
        "simulator",
        "train_tvae",
        "train_ctabgan",
        "train_tabddpm",
        "broker_dispatch",
        "gmm_fit",
        "sample_tabddpm",
        "sample_ctabgan",
        # Relaxed serving-mode kernels (exact-mode baseline; see
        # bench_hotpaths.bench_fast_sampling).
        "sample_tabddpm_fast",
        "sample_ctabgan_fast",
        "sample_tvae_fast",
        # Serving-stack kernels: the sharded service against the in-process
        # serving loop, both in fast mode with the same repeats (see
        # bench_hotpaths.bench_serve_sharded for the contract).
        "serve_sharded_tvae",
        "serve_sharded_tabddpm",
        # Fault-recovery kernel: the same sharded contract with one injected
        # worker kill per measured run (see bench_hotpaths.bench_serve_faulty)
        # — guards the overhead of pool supervision itself.
        "serve_sharded_tvae_faulty",
        # Front-door kernel: the pipelined dispatch path (FrontDoor routing
        # + the fair-queue dispatcher) against a one-request-at-a-time
        # client loop, both in fast mode (see bench_hotpaths.bench_front_door)
        # — guards the per-request plumbing the multi-tenant front door adds.
        "serve_front_door",
        # Columnar data-plane kernel: dictionary-coded label encoding vs the
        # string path (see bench_hotpaths.bench_encode_categorical).
        "encode_categorical_codes",
        # Observability kernel: the traced serving path vs the identical
        # untraced one (see bench_hotpaths.bench_serve_traced) — its committed
        # baseline is the <=5% tracing-overhead contract asserted by
        # tests/test_ci_workflow.py.
        "serve_traced",
        # Table-I fidelity kernels: SMOTE fit plus DCR on the mixed-type
        # kNN kernel, and the linear WD, each against its seed port (see
        # bench_hotpaths.bench_fidelity; records carry scaling exponents).
        "knn_mixed",
        "wasserstein",
        # Pool scaling kernel: the same fast request in-process at one worker
        # and on the warm pool at the whole core budget (see
        # bench_hotpaths.bench_serve_scaling).
        "serve_scaling",
        # The decoders' quantile inverse: np.interp's binary search against
        # the O(1) lookup on the uniform knot grid (see
        # bench_hotpaths.bench_quantile_inverse).
        "quantile_inverse",
    }
)


def compare(
    fresh: BenchmarkRegistry, baseline: BenchmarkRegistry, *, threshold: float
) -> int:
    """Flag kernels whose fresh measurement regressed beyond ``threshold``.

    The primary metric is the seed/optimized *speedup* of each kernel, which
    both runs measure on their own machine — comparing speedups keeps the
    gate meaningful when the baseline was committed from different hardware.
    When either side lacks the seed measurement, absolute optimized seconds
    are compared as a fallback.  ``serve_scaling`` also fails when its fresh
    pool (``optimized``) is slower than its fresh in-process run (``seed``),
    unless the record says the pool had one worker (a one-core budget).
    """
    failures = []
    slower = []
    checked = 0
    for rec in fresh.records:
        if rec.variant != "optimized":
            continue
        fresh_seed = fresh.seconds_of(rec.kernel, "seed", rec.size)
        workers = (rec.extra or {}).get("workers", 1)
        if rec.kernel == "serve_scaling" and workers > 1 and fresh_seed is not None:
            beaten = rec.seconds <= fresh_seed
            print(
                f"  [{'ok' if beaten else 'SLOWER'}] {rec.kernel} @ {rec.size}: "
                f"{workers:.0f} workers {rec.seconds:.4f}s vs one {fresh_seed:.4f}s"
            )
            if not beaten:
                slower.append(f"{rec.kernel} @ {rec.size}")
        base_seconds = baseline.seconds_of(rec.kernel, "optimized", rec.size)
        if base_seconds is None:
            print(f"  [warn] no baseline for {rec.kernel} @ {rec.size}; skipping")
            continue
        checked += 1
        base_seed = baseline.seconds_of(rec.kernel, "seed", rec.size)
        if fresh_seed and base_seed and rec.seconds > 0 and base_seconds > 0:
            fresh_speedup = fresh_seed / rec.seconds
            base_speedup = base_seed / base_seconds
            ratio = base_speedup / fresh_speedup if fresh_speedup > 0 else float("inf")
            detail = f"speedup {fresh_speedup:.1f}x vs baseline {base_speedup:.1f}x"
        else:
            ratio = rec.seconds / base_seconds if base_seconds > 0 else float("inf")
            detail = f"{rec.seconds:.4f}s vs baseline {base_seconds:.4f}s"
        status = "ok" if ratio <= threshold else "REGRESSION"
        print(f"  [{status}] {rec.kernel} @ {rec.size}: {detail} ({ratio:.2f}x slowdown)")
        if ratio > threshold:
            failures.append((rec.kernel, rec.size, ratio))
    if checked == 0:
        print("  [error] no comparable measurements found")
        return 1
    measured = {rec.kernel for rec in fresh.records if rec.variant == "optimized"}
    missing = sorted(REQUIRED_KERNELS - measured)
    if missing:
        print(f"perf gate: fresh run is missing required kernel(s): {', '.join(missing)}")
        return 1
    if slower:
        print(f"perf gate: the pool is slower than one worker: {', '.join(slower)}")
        return 1
    if failures:
        worst = max(failures, key=lambda item: item[2])
        names = ", ".join(f"{kernel} @ {size}" for kernel, size, _ in failures)
        print(
            f"perf gate: {len(failures)} kernel(s) regressed beyond {threshold:.2f}x: {names} "
            f"(worst: {worst[0]} @ {worst[1]}, {worst[2]:.2f}x slowdown)"
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--fresh",
        default=None,
        help="path to a freshly written BENCH_hotpaths.json; when omitted the "
        "benchmarks are re-run in quick mode",
    )
    parser.add_argument("--baseline", default=BASELINE, help="committed baseline JSON")
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="maximum tolerated slowdown factor per kernel/size (default 2x)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=1.0,
        help="multiplier applied to --threshold to absorb machine variance "
        "(hosted CI runners use a looser factor than local runs)",
    )
    parser.add_argument(
        "--full", action="store_true", help="run the full (not quick) benchmark sizes"
    )
    args = parser.parse_args(argv)
    if args.factor <= 0:
        parser.error("--factor must be positive")
    threshold = args.threshold * args.factor

    if not os.path.exists(args.baseline):
        print(f"baseline {args.baseline} not found; run bench_hotpaths.py first")
        return 1
    baseline = BenchmarkRegistry.from_json(args.baseline)

    if args.fresh is not None:
        if not os.path.exists(args.fresh):
            print(f"fresh report {args.fresh} not found; run bench_hotpaths.py first")
            return 1
        fresh = BenchmarkRegistry.from_json(args.fresh)
    else:
        from bench_hotpaths import run_benchmarks

        print("running hot-path benchmarks (quick mode)..." if not args.full else
              "running hot-path benchmarks (full mode)...")
        fresh = run_benchmarks(quick=not args.full)

    print(
        f"comparing against {args.baseline} "
        f"(threshold {args.threshold:.1f}x * factor {args.factor:.1f} = {threshold:.1f}x):"
    )
    code = compare(fresh, baseline, threshold=threshold)
    print("perf gate " + ("FAILED" if code else "passed"))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
