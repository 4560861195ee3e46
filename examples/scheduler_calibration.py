#!/usr/bin/env python
"""Calibrating a grid simulation with surrogate workloads (the paper's Fig. 2 setting).

The paper motivates surrogate models as a safe source of workload for
optimising job allocation and for calibrating event-based simulations of the
distributed computing system.  This example demonstrates exactly that loop:

1. build a synthetic PanDA trace and hold out a test window,
2. train TabDDPM on the training split and sample a synthetic workload,
3. drive the discrete-event grid simulator with (a) the real held-out jobs
   and (b) the synthetic jobs, under three brokerage policies,
4. report how close the synthetic-driven simulation tracks the real one
   (wait times, utilisation) — i.e. whether the surrogate is good enough to
   stand in for real data when evaluating scheduling policies.

Run with:  python examples/scheduler_calibration.py
"""

from repro.experiments import ExperimentConfig, build_dataset, fig2_scheduler_comparison
from repro.experiments.table1 import build_model
from repro.utils.rng import derive_seed


def main() -> None:
    config = ExperimentConfig.ci()
    data = build_dataset(config)
    print(f"dataset: {data.n_train} train rows, {data.n_test} test rows")

    model = build_model("tabddpm", config)
    model.fit(data.train)
    synthetic = model.sample(data.n_test, seed=derive_seed(config.seed, "scheduler-example"))
    print(f"sampled {len(synthetic)} synthetic jobs from {model.name}")

    result = fig2_scheduler_comparison(config, dataset=data, synthetic_tables={model.name: synthetic})
    rows = result["rows"]

    keys = ["workload", "broker", "completed", "mean_wait_h", "p95_wait_h", "mean_utilization"]
    print()
    print(" ".join(f"{k:>18}" for k in keys))
    for row in rows:
        print(" ".join(f"{str(row[k]):>18}" for k in keys))

    # Pair up real vs synthetic per broker and report the calibration gap.
    print()
    print("Real-vs-synthetic calibration gap per brokerage policy:")
    real = {r["broker"]: r for r in rows if r["workload"] == "real"}
    synth = {r["broker"]: r for r in rows if r["workload"] == model.name}
    for broker in real:
        if broker not in synth:
            continue
        wait_gap = abs(real[broker]["mean_wait_h"] - synth[broker]["mean_wait_h"])
        util_gap = abs(real[broker]["mean_utilization"] - synth[broker]["mean_utilization"])
        print(f"  {broker:<14} wait-time gap {wait_gap:7.3f} h   utilisation gap {util_gap:6.4f}")


if __name__ == "__main__":
    main()
