"""Command-line entry point: ``repro-experiments <experiment> [options]``.

Regenerates any paper artefact from the terminal, e.g.::

    repro-experiments table1 --preset ci
    repro-experiments fig3 --raw-jobs 20000
    repro-experiments fig2 --models tabddpm
    repro-experiments ablations --which smote_k
    repro-experiments scenario chaos-drift --seed 7 --report report.json

(Equivalently: ``python -m repro.experiments.cli ...``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from repro.experiments.ablations import run_ablations
from repro.experiments.config import ExperimentConfig
from repro.experiments.data import build_dataset
from repro.experiments.figures import (
    _fit_and_sample,
    fig1_data_volume,
    fig2_scheduler_comparison,
    fig3_dataset_profile,
    fig4_distributions,
    fig5_correlations,
)
from repro.experiments.table1 import PAPER_TABLE1, run_table1
from repro.metrics.report import format_table
from repro.utils.logging import set_verbosity

EXPERIMENTS = ("table1", "fig1", "fig2", "fig3", "fig4", "fig5", "ablations", "serve", "scenario")


def _make_config(args: argparse.Namespace) -> ExperimentConfig:
    presets = {
        "ci": ExperimentConfig.ci,
        "default": ExperimentConfig.default,
        "paper": ExperimentConfig.paper_scale,
    }
    config = presets[args.preset]()
    if args.raw_jobs is not None:
        config = replace(config, n_raw_jobs=args.raw_jobs)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.models:
        config = config.with_models(args.models)
    return config


def _print_matrix(matrix: np.ndarray, labels: Sequence[str]) -> None:
    width = max(len(str(label)) for label in labels) + 1
    header = " " * width + " ".join(f"{label[:7]:>8}" for label in labels)
    print(header)
    for label, row in zip(labels, matrix):
        cells = " ".join(f"{v:>8.3f}" for v in row)
        print(f"{label:<{width}}{cells}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("experiment", choices=EXPERIMENTS, help="which paper artefact to regenerate")
    parser.add_argument(
        "target", nargs="?", default=None,
        help="experiment-specific target (for 'scenario': the catalog name; "
        "omit it to list the catalog)",
    )
    parser.add_argument("--preset", choices=("ci", "default", "paper"), default="ci")
    parser.add_argument("--raw-jobs", type=int, default=None, help="override the number of raw records")
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument("--models", nargs="+", default=None, help="subset of models to run")
    parser.add_argument("--no-mlef", action="store_true", help="skip the costly efficacy metric")
    parser.add_argument(
        "--sampling-mode",
        choices=("exact", "fast"),
        default=None,
        help="generation path: 'exact' is bit-reproducible, 'fast' is the "
        "relaxed serving mode (same distribution, float32 fused forwards, "
        "different RNG stream).  Defaults to 'exact' for table1 (paper "
        "artefacts must be reproducible) and 'fast' for serve (the serving "
        "stack's own default)",
    )
    parser.add_argument("--which", nargs="+", default=None, help="ablation sweeps to run")
    request_group = parser.add_argument_group(
        "request",
        "unified RequestSpec knobs (shared by 'serve' and 'scenario'): every "
        "serving entry point — submit(), the HTTP front door and these CLIs — "
        "parses the same fields",
    )
    request_group.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="fairness principal for the requests.  serve: label all demo "
        "requests with this tenant (default: a rotating tenant00..tenant03 "
        "mix).  scenario: combined with --priority, pin that one tenant's "
        "service class",
    )
    request_group.add_argument(
        "--priority", choices=("interactive", "normal", "batch"), default=None,
        help="service class (weighted-fair-queueing weight 4/2/1).  serve: "
        "class of the demo requests (default: a rotating mix).  scenario: "
        "the default class for all traffic, or — with --tenant — one "
        "tenant's class",
    )
    request_group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request SLO: admission control rejects a request whose "
        "estimated queue wait already exceeds this deadline (HTTP 429)",
    )
    serve_group = parser.add_argument_group("serve", "options for the 'serve' experiment")
    serve_group.add_argument(
        "--http", action="store_true",
        help="front-door smoke: start the threaded HTTP endpoint, replay the "
        "demo requests over HTTP (fingerprint_only), and verify every "
        "fingerprint against the in-process service — exits non-zero on any "
        "mismatch",
    )
    serve_group.add_argument(
        "--workers", type=int, default=None,
        help="serving worker processes (default: the visible CPU budget / REPRO_WORKERS)",
    )
    serve_group.add_argument(
        "--chunk-size", type=int, default=16_384, help="rows per sharded chunk"
    )
    serve_group.add_argument(
        "--serve-rows", type=int, default=100_000, help="total rows to serve in the demo"
    )
    serve_group.add_argument(
        "--requests", type=int, default=8,
        help="number of concurrent requests the demo splits --serve-rows into",
    )
    serve_group.add_argument(
        "--registry", default=None,
        help="model-registry directory (default: a temporary directory)",
    )
    serve_group.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="deterministic chaos: comma-separated kind@chunk[:value][*times] "
        "faults injected into the workers, e.g. 'kill@1,delay@3:0.25,fail@0*2' "
        "(kinds: kill = crash the worker, delay = sleep value seconds, "
        "fail = raise once per budgeted time).  Every served table is "
        "checked against the fault-free in-process reference (fault_check "
        "in --json; exits non-zero on a mismatch); fault counters land in "
        "the stats output",
    )
    serve_group.add_argument(
        "--chunk-timeout", type=float, default=None,
        help="per-chunk attempt deadline in seconds (timed-out chunks are resubmitted)",
    )
    serve_group.add_argument(
        "--hedge-multiplier", type=float, default=None,
        help="hedge a chunk once it is this multiple of the median chunk latency",
    )
    obs_group = parser.add_argument_group(
        "observability", "tracing / metrics surfaces (shared by 'serve' and 'scenario')"
    )
    obs_group.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record request-scoped spans and export them after the run: "
        "Chrome trace_event JSON (Perfetto-loadable) for *.json paths, "
        "JSONL otherwise.  Tracing never changes served bytes",
    )
    obs_group.add_argument(
        "--check-metrics", action="store_true",
        help="serve --http only: scrape GET /metrics off the live front "
        "door, validate the Prometheus text format and the required "
        "repro_serve_* series; exits non-zero on any problem",
    )
    scenario_group = parser.add_argument_group(
        "scenario", "options for the 'scenario' experiment (replay + drift/canary loop)"
    )
    scenario_group.add_argument(
        "--report", default=None, metavar="PATH",
        help="write the full scenario report (deterministic core + timing) as JSON",
    )
    scenario_group.add_argument(
        "--ticks", type=int, default=None, help="override the scenario's replay horizon"
    )
    scenario_group.add_argument(
        "--window-rows", type=int, default=None,
        help="override rows per observed drift-monitor window",
    )
    scenario_group.add_argument(
        "--train-rows", type=int, default=None,
        help="override the initial training-corpus size",
    )
    parser.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    set_verbosity(args.verbose)
    config = _make_config(args)

    if args.experiment == "table1":
        result = run_table1(
            config,
            compute_mlef=not args.no_mlef,
            verbose=args.verbose,
            sampling_mode=args.sampling_mode or "exact",
        )
        if args.json:
            payload = {
                "scores": [s.as_dict() for s in result["scores"]],
                "ranks": result["ranks"],
                "timings": result["timings"],
                "paper": [s.as_dict() for s in PAPER_TABLE1],
            }
            print(json.dumps(payload, indent=2))
        else:
            print(result["formatted"])
            print()
            for metric, order in result["ranks"].items():
                print(f"{metric:>10}: {' > '.join(order)}")
            print()
            print(format_table(PAPER_TABLE1, title="THE PAPER'S TABLE I"))
        return 0

    if args.experiment == "fig1":
        series = fig1_data_volume(config)
        if args.json:
            print(json.dumps({k: v.tolist() for k, v in series.items()}, indent=2))
        else:
            print("day    cumulative input volume (PB)")
            for day, total in zip(series["day"], series["cumulative_bytes"] / 1e15):
                print(f"{day:6.1f} {total:10.3f}")
        return 0

    if args.experiment == "fig2":
        data = build_dataset(config)
        # Each listed surrogate's workload runs next to the real one.
        synthetic = _fit_and_sample(config, data, "fig2") if args.models else None
        result = fig2_scheduler_comparison(config, dataset=data, synthetic_tables=synthetic)
        rows = result["rows"]
        if args.json:
            print(json.dumps(rows, indent=2))
        else:
            keys = list(rows[0].keys())
            print(" ".join(f"{k:>16}" for k in keys))
            for row in rows:
                print(" ".join(f"{str(row[k]):>16}" for k in keys))
        return 0

    if args.experiment == "fig3":
        result = fig3_dataset_profile(config)
        if args.json:
            print(json.dumps(result, indent=2, default=str))
        else:
            print("Fig. 3(a) feature profile")
            for row in result["profile"]:
                print(f"  {row['name']:<18} {row['kind']:<12} unique={row['n_unique']}")
            print()
            print("Fig. 3(b) filtering funnel")
            for row in result["funnel"]:
                print(f"  {row['stage']:<34} {row['rows']:>10,d}")
            print(f"  train/test split: {result['train_rows']:,d} / {result['test_rows']:,d}")
        return 0

    if args.experiment == "fig4":
        result = fig4_distributions(config)
        if args.json:
            print(json.dumps(result, indent=2, default=lambda o: o.tolist() if isinstance(o, np.ndarray) else str(o)))
        else:
            for column, per_model in result["categorical"].items():
                print(f"Fig. 4(b) {column}: top categories (real vs synthetic frequency)")
                for model, rows in per_model.items():
                    cells = ", ".join(f"{r['category']}={r['real']:.2f}/{r['synthetic']:.2f}" for r in rows)
                    print(f"  {model:<14} {cells}")
            print("(numerical histogram series available via --json)")
        return 0

    if args.experiment == "fig5":
        result = fig5_correlations(config)
        if args.json:
            payload = {
                "columns": list(result["columns"]),
                "ground_truth": result["ground_truth"].tolist(),
                "models": {
                    name: {
                        "diff_corr": info["diff_corr"],
                        "difference": info["difference"].tolist(),
                    }
                    for name, info in result["models"].items()
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            print("Fig. 5(a) ground-truth association matrix")
            _print_matrix(result["ground_truth"], list(result["columns"]))
            print()
            for name, info in result["models"].items():
                print(f"Fig. 5(b) {name}: diff-CORR = {info['diff_corr']:.3f}")
        return 0

    if args.experiment == "serve":
        import hashlib
        import tempfile
        import urllib.request

        from repro.experiments.table1 import build_model
        from repro.obs.metrics import REQUIRED_SERVE_SERIES, validate_prometheus_text
        from repro.obs.tracing import Tracer
        from repro.serve import ChunkPolicy, FaultPlan, ModelRegistry, SamplingService
        from repro.serve.api import RequestSpec, table_fingerprint
        from repro.serve.http import FrontDoor
        from repro.tabular.table import Table
        from repro.utils.rng import derive_seed

        if args.check_metrics and not args.http:
            parser.error("--check-metrics needs --http (it scrapes the live front door)")
        tracer = Tracer() if args.trace_out else None
        sampling_mode = args.sampling_mode or "fast"
        name = config.models[0] if args.models else "tvae"
        data = build_dataset(config)
        model = build_model(name, config).fit(data.train)

        fault_plan = FaultPlan.parse(args.fault_plan) if args.fault_plan else None
        chunk_policy = None
        if args.chunk_timeout is not None or args.hedge_multiplier is not None:
            chunk_policy = ChunkPolicy(
                timeout=args.chunk_timeout, hedge_multiplier=args.hedge_multiplier
            )

        # Every demo request is a RequestSpec — the unified contract.  With no
        # explicit --tenant/--priority the demo rotates through a mixed-tenant,
        # mixed-class population so fairness and WFQ ordering are exercised.
        priorities = ("interactive", "normal", "batch")

        def request_spec(i: int, rows: int) -> RequestSpec:
            return RequestSpec(
                n=rows,
                seed=derive_seed(config.seed, "serve", str(i)),
                sampling_mode=sampling_mode,
                tenant=args.tenant if args.tenant else f"tenant{i % 4:02d}",
                priority=args.priority if args.priority else priorities[i % 3],
                deadline=args.deadline,
            )

        http_report = None
        with tempfile.TemporaryDirectory() as scratch:
            registry = ModelRegistry(args.registry or scratch, warm_chunk_rows=args.chunk_size)
            version = registry.register(name, model)
            n_requests = max(1, args.requests)
            per_request = max(1, args.serve_rows // n_requests)
            with SamplingService(
                registry.get(name),
                workers=args.workers,
                chunk_size=args.chunk_size,
                chunk_policy=chunk_policy,
                fault_plan=fault_plan,
                tracer=tracer,
            ) as service:
                specs = [request_spec(i, per_request) for i in range(n_requests)]
                requests = [service.submit(spec) for spec in specs]
                tables = [r.result() for r in requests]
                served = sum(len(table) for table in tables)
                fault_check = None
                if fault_plan is not None:
                    # The byte promise under chaos: each served table must
                    # equal the fault-free in-process reference.
                    def reference(spec: RequestSpec) -> str:
                        batches = service.model.sample_batches(
                            spec.n,
                            args.chunk_size,
                            seed=spec.seed,
                            sampling_mode=spec.sampling_mode,
                        )
                        return table_fingerprint(Table.concat(list(batches)))

                    mismatches = sum(
                        table_fingerprint(table) != reference(spec)
                        for spec, table in zip(specs, tables)
                    )
                    fault_check = {"verified": mismatches == 0, "mismatches": mismatches}
                if args.http:
                    # Front-door smoke: the same specs replayed over live
                    # HTTP must fingerprint identically to the in-process
                    # service (the byte contract, end to end).
                    front_door = FrontDoor({name: service})
                    host, port = front_door.start_http()
                    url = f"http://{host}:{port}/sample"
                    digest = hashlib.sha256()
                    mismatches = 0
                    metrics_report = None
                    try:
                        for spec in specs:
                            body = dict(spec.to_dict())
                            body["fingerprint_only"] = True
                            raw = urllib.request.urlopen(
                                urllib.request.Request(
                                    url,
                                    data=json.dumps(body).encode("utf-8"),
                                    method="POST",
                                )
                            ).read()
                            remote = json.loads(raw)["fingerprint"]
                            local = table_fingerprint(service.sample(spec))
                            if remote != local:
                                mismatches += 1
                            digest.update(remote.encode("ascii"))
                        if args.check_metrics:
                            # Scrape the live /metrics page and validate the
                            # exposition format + required series.
                            response = urllib.request.urlopen(
                                f"http://{host}:{port}/metrics"
                            )
                            text = response.read().decode("utf-8")
                            problems = validate_prometheus_text(
                                text, required=REQUIRED_SERVE_SERIES
                            )
                            content_type = response.headers.get("Content-Type", "")
                            if not content_type.startswith("text/plain"):
                                problems.append(
                                    f"unexpected Content-Type {content_type!r}"
                                )
                            metrics_report = {
                                "series_required": list(REQUIRED_SERVE_SERIES),
                                "problems": problems,
                                "ok": not problems,
                            }
                    finally:
                        front_door.stop_http()
                    http_report = {
                        "requests": n_requests,
                        "fingerprint": digest.hexdigest(),
                        "mismatches": mismatches,
                        "verified": mismatches == 0,
                    }
                    if metrics_report is not None:
                        http_report["metrics"] = metrics_report
                stats = service.stats()
                payload = {
                    "model": name,
                    "version": version,
                    "workers": service.workers,
                    "chunk_size": service.chunk_size,
                    "sampling_mode": sampling_mode,
                    "requests": n_requests,
                    "rows_served": served,
                    "rows_per_second": round(stats.rows_per_second, 1),
                    "p50_latency_s": round(stats.p50_latency, 4),
                    "p95_latency_s": round(stats.p95_latency, 4),
                    "fault_plan": args.fault_plan,
                    "pool_restarts": stats.pool_restarts,
                    "chunk_retries": stats.chunk_retries,
                    "chunk_timeouts": stats.chunk_timeouts,
                    "hedges": stats.hedges,
                    "hedge_wins": stats.hedge_wins,
                    "degraded_passes": stats.degraded_passes,
                    # The unified stats tree (same shape as HTTP /stats and
                    # the scenario reports' timing.service block).
                    "stats": stats.to_dict(),
                }
                if fault_check is not None:
                    payload["fault_check"] = fault_check
                if http_report is not None:
                    payload["http"] = http_report
            if fault_plan is not None:
                fault_plan.cleanup()
        if tracer is not None:
            exported = tracer.export(args.trace_out)
            payload["trace"] = {"path": args.trace_out, "spans": exported}
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            print(f"served {served:,d} rows of {name} ({version}) in {n_requests} requests")
            print(
                f"  workers={payload['workers']} chunk_size={payload['chunk_size']} "
                f"mode={sampling_mode}"
            )
            print(
                f"  throughput {payload['rows_per_second']:,.1f} rows/s, "
                f"latency p50 {payload['p50_latency_s']*1e3:.1f} ms / "
                f"p95 {payload['p95_latency_s']*1e3:.1f} ms"
            )
            if args.fault_plan:
                print(
                    f"  faults: plan={args.fault_plan!r} "
                    f"restarts={payload['pool_restarts']} "
                    f"retries={payload['chunk_retries']} "
                    f"timeouts={payload['chunk_timeouts']} "
                    f"hedge_wins={payload['hedge_wins']}/{payload['hedges']} "
                    f"degraded_passes={payload['degraded_passes']}"
                )
                print(
                    f"  fault check: {n_requests} tables vs the fault-free reference, "
                    f"{'verified' if fault_check['verified'] else 'MISMATCH'}"
                )
            if http_report is not None:
                print(
                    f"  http front door: {http_report['requests']} requests, "
                    f"fingerprint {http_report['fingerprint'][:16]}…, "
                    f"{'verified' if http_report['verified'] else 'MISMATCH'}"
                )
                if "metrics" in http_report:
                    metrics_ok = http_report["metrics"]["ok"]
                    print(
                        f"  /metrics scrape: "
                        f"{'valid' if metrics_ok else 'INVALID'} "
                        f"({len(http_report['metrics']['series_required'])} required series)"
                    )
            if tracer is not None:
                print(
                    f"  trace: {payload['trace']['spans']} spans -> {args.trace_out}"
                )
        if fault_check is not None and not fault_check["verified"]:
            print(
                f"error: {fault_check['mismatches']} table(s) served under the fault "
                "plan diverged from the fault-free reference",
                file=sys.stderr,
            )
            return 1
        if http_report is not None and not http_report["verified"]:
            print(
                f"error: {http_report['mismatches']} HTTP fingerprint(s) diverged "
                "from the in-process service",
                file=sys.stderr,
            )
            return 1
        if http_report is not None and "metrics" in http_report and not http_report["metrics"]["ok"]:
            for problem in http_report["metrics"]["problems"]:
                print(f"error: /metrics: {problem}", file=sys.stderr)
            return 1
        return 0

    if args.experiment == "scenario":
        from repro.scenarios import ScenarioEngine, get_scenario, scenario_names, SCENARIOS

        if args.target is None:
            print("available scenarios (run with: repro-experiments scenario <name>):")
            for scenario_name in scenario_names():
                print(f"  {scenario_name:<20} {SCENARIOS[scenario_name].description}")
            return 0
        spec = get_scenario(args.target)
        overrides = {}
        if args.ticks is not None:
            overrides["ticks"] = args.ticks
            # Keep the chaos schedule valid when the horizon shrinks.
            overrides["fault_arm_ticks"] = tuple(
                t for t in spec.fault_arm_ticks if t < args.ticks
            )
        if args.window_rows is not None:
            overrides["window_rows"] = args.window_rows
        if args.train_rows is not None:
            overrides["train_rows"] = args.train_rows
        # The unified request knobs: --priority sets the default service
        # class (or one tenant's class, with --tenant); --deadline attaches
        # an SLO to every generated request.
        if args.priority is not None:
            if args.tenant is not None:
                overrides["tenant_priorities"] = {
                    **spec.tenant_priorities,
                    args.tenant: args.priority,
                }
            else:
                overrides["default_priority"] = args.priority
        elif args.tenant is not None:
            parser.error("scenario: --tenant needs --priority (the class to pin)")
        if args.deadline is not None:
            overrides["request_deadline"] = args.deadline
        if overrides:
            spec = spec.scaled(**overrides)
        from repro.obs.tracing import Tracer

        tracer = Tracer() if args.trace_out else None
        engine = ScenarioEngine(
            spec,
            seed=args.seed if args.seed is not None else 7,
            workers=args.workers,
            registry_root=args.registry,
            tracer=tracer,
        )
        report = engine.run()
        exported_spans = tracer.export(args.trace_out) if tracer is not None else None
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        if args.json:
            print(report.to_json())
        else:
            print(report.summary())
            if args.report:
                print(f"  report written to {args.report}")
            if exported_spans is not None:
                print(f"  trace: {exported_spans} spans -> {args.trace_out}")
        return 0

    if args.experiment == "ablations":
        which = tuple(args.which) if args.which else ("diffusion_steps", "smote_k", "numerical_transform")
        result = run_ablations(config, which=which)
        if args.json:
            print(json.dumps(result, indent=2))
        else:
            for sweep, rows in result.items():
                print(f"Ablation: {sweep}")
                for row in rows:
                    print("  " + ", ".join(f"{k}={v if isinstance(v, str) else round(float(v), 3)}" for k, v in row.items()))
        return 0

    parser.error(f"unhandled experiment {args.experiment!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
