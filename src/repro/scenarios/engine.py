"""The scenario engine: replay a spec through the full serving stack.

One :meth:`ScenarioEngine.run` drives, tick by tick:

1. **Traffic** — the tick's :class:`~repro.serve.api.RequestSpec` batch
   from the :class:`~repro.scenarios.streams.TrafficModel`, in the spec's
   sampling mode, is submitted to a live
   :class:`~repro.serve.service.SamplingService` (weighted fair
   queueing, admission control, pipelined dispatch, backpressure, chunk
   resilience and crash recovery all active), every result is collected,
   fingerprinted, and counted — a lost or erroneous request is a reportable
   defect, never a silent skip.  Front-door specs route the same traffic
   through a :class:`~repro.serve.http.FrontDoor` across ``prod`` *and*
   ``canary`` backend services, steering a seed-derived share of requests
   to the canary stage — stage choice is pinned per request (never load- or
   time-dependent), which is what keeps the report fingerprint invariant
   across reruns and worker counts.
2. **Chaos** — at scheduled ticks the spec's
   :class:`~repro.serve.faults.FaultPlan` is re-armed, so worker kills /
   transient failures land *inside* live traffic; recovery is the serving
   stack's job and byte-determinism is asserted over the whole run.
3. **Observation** — the tick's window from the
   :class:`~repro.scenarios.streams.WindowStream` feeds the
   :class:`~repro.metrics.distribution.DriftMonitor`.
4. **The loop** — on sustained drift: retrain on the recent drifted
   windows, register the new version under the ``canary`` stage, compare
   canary vs ``prod`` fidelity on a held-out window, then promote (registry
   pointer swap + zero-downtime hot model swap + monitor rebaseline) or
   roll back (canary stage cleared, prod keeps serving).

Every random choice derives from the scenario seed, so the deterministic
core of the resulting :class:`~repro.scenarios.report.ScenarioReport` —
fingerprint included — is identical across reruns, worker counts, and
injected faults.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.metrics.distribution import DriftMonitor
from repro.metrics.distribution import mean_jsd, mean_wasserstein
from repro.obs.tracing import Tracer
from repro.models import Surrogate, create_surrogate
from repro.panda.generator import GeneratorConfig
from repro.scenarios.catalog import ScenarioSpec, get_scenario
from repro.scenarios.report import ScenarioReport, table_fingerprint
from repro.scenarios.streams import TrafficModel, WindowStream
from repro.serve.admission import AdmissionPolicy, ServiceOverloaded
from repro.serve.api import RequestSpec
from repro.serve.faults import FaultPlan
from repro.serve.http import FrontDoor
from repro.serve.registry import ModelRegistry
from repro.serve.service import SamplingService
from repro.tabular.table import Table
from repro.utils.rng import derive_seed

__all__ = ["ScenarioEngine", "run_scenario"]


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (the service's convention); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


class ScenarioEngine:
    """Run one :class:`ScenarioSpec` end to end.

    Parameters
    ----------
    spec:
        The scenario (a catalog name or a :class:`ScenarioSpec`).
    seed:
        Master seed; every stream, request, retrain and comparison derives
        from it.
    workers:
        Worker processes for the sampling service (``None`` = autodetect,
        honouring ``REPRO_WORKERS``).
    registry_root:
        Directory for the :class:`ModelRegistry`.  ``None`` uses a run-local
        temporary directory (removed afterwards).
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer` installed in every
        backend service — the whole run's spans land in one buffer (the
        CLI's ``--trace-out``).  Tracing never touches served bytes: the
        report's deterministic core is identical with or without it.
    """

    def __init__(
        self,
        spec: Union[str, ScenarioSpec],
        *,
        seed: int = 7,
        workers: Optional[int] = None,
        registry_root: Optional[Union[str, Path]] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.spec = get_scenario(spec) if isinstance(spec, str) else spec
        self.seed = int(seed)
        self.workers = workers
        self.registry_root = registry_root
        self.tracer = tracer

    # -- pieces -------------------------------------------------------------------
    def _generator_config(self) -> GeneratorConfig:
        spec = self.spec
        return GeneratorConfig(
            n_jobs=max(spec.train_rows * 3, 2000),
            n_days=spec.n_days,
            n_sites=12,
            n_datasets=150,
            n_users=spec.n_users,
            seed=derive_seed(self.seed, "generator"),
        )

    def _window_stream(self) -> WindowStream:
        spec = self.spec
        return WindowStream(
            window_rows=spec.window_rows,
            seed=derive_seed(self.seed, "windows"),
            generator=self._generator_config(),
            drift_phases=spec.drift_phases,
            degenerate_ticks=spec.degenerate_ticks,
        )

    def _traffic_model(self) -> TrafficModel:
        spec = self.spec
        return TrafficModel(
            seed=derive_seed(self.seed, "traffic"),
            ticks=spec.ticks,
            n_days=spec.n_days,
            requests_per_tick=spec.requests_per_tick,
            base_rows=spec.base_rows,
            min_rows=spec.min_rows,
            max_rows=spec.max_rows,
            n_tenants=spec.n_tenants,
            n_users=spec.n_users,
            n_bursts=spec.n_bursts,
            tenant_priorities=spec.tenant_priorities,
            default_priority=spec.default_priority,
            deadline=spec.request_deadline,
        )

    def _admission_policy(self) -> Optional[AdmissionPolicy]:
        spec = self.spec
        if spec.admission_max_queue_depth is None and spec.admission_max_backlog_rows is None:
            return None
        return AdmissionPolicy(
            max_queue_depth=spec.admission_max_queue_depth,
            max_backlog_rows=spec.admission_max_backlog_rows,
        )

    def _request_stage(self, tick: int, position: int) -> str:
        """Deterministic prod/canary split: derived from the seed, never from
        load or timing (the fingerprint-invariance requirement)."""
        if self.spec.canary_share <= 0:
            return "prod"
        draw = derive_seed(self.seed, "stage", tick, position) % 1_000_000
        return "canary" if draw / 1_000_000 < self.spec.canary_share else "prod"

    def _fit_model(self, corpus: Table, *, purpose: str, tick: int = -1) -> Surrogate:
        model = create_surrogate(self.spec.model)
        model.fit(corpus)
        return model

    def _fidelity(self, model: Surrogate, holdout: Table, *, seed: int) -> float:
        """Scalar fidelity of a model against held-out data (lower = better)."""
        sample = model.sample(
            self.spec.canary_rows, seed=seed, sampling_mode=self.spec.sampling_mode
        )
        wd, _ = mean_wasserstein(holdout, sample)
        jsd, _ = mean_jsd(holdout, sample)
        return float(wd + jsd)

    # -- the run ------------------------------------------------------------------
    def run(self) -> ScenarioReport:
        spec = self.spec
        started = time.perf_counter()
        stream = self._window_stream()
        traffic = self._traffic_model()

        train_table = stream.training_table(spec.train_rows)
        model = self._fit_model(train_table, purpose="initial")

        plan: Optional[FaultPlan] = None
        if spec.fault_plan:
            plan = FaultPlan.parse(spec.fault_plan)
            plan.disarm()  # quiet until the first scheduled arm tick

        registry_dir: Optional[tempfile.TemporaryDirectory] = None
        root = self.registry_root
        if root is None:
            registry_dir = tempfile.TemporaryDirectory(prefix="repro-scenario-registry-")
            root = registry_dir.name
        registry = ModelRegistry(root, warm_chunk_rows=spec.chunk_size)
        model_name = spec.name
        initial_version = registry.register(model_name, model, stage="prod")

        monitor = DriftMonitor(train_table, config=spec.drift)
        recent_windows: Deque[Table] = deque(maxlen=max(spec.retrain_windows, 1))

        report = ScenarioReport(
            scenario=spec.name,
            seed=self.seed,
            model=spec.model,
            sampling_mode=spec.sampling_mode,
            workers=0,  # filled below once the service resolved the count
            ticks=spec.ticks,
            initial_version=initial_version,
        )
        report.final_prod_version = initial_version
        report.registry_versions.append(initial_version)
        fingerprint = hashlib.sha256()
        armed_interval_open = False
        admission = self._admission_policy()

        # The serving backends: always a ``prod`` service; front-door specs
        # add a ``canary`` service over the same initial model and route both
        # through a FrontDoor.
        services: Dict[str, SamplingService] = {
            "prod": SamplingService(
                model,
                workers=self.workers,
                chunk_size=spec.chunk_size,
                fault_plan=plan,
                max_pool_restarts=spec.max_pool_restarts,
                admission=admission,
                microbatch_rows=spec.microbatch_rows,
                tracer=self.tracer,
            )
        }
        front_door: Optional[FrontDoor] = None
        if spec.front_door:
            services["canary"] = SamplingService(
                model,
                workers=self.workers,
                chunk_size=spec.chunk_size,
                max_pool_restarts=spec.max_pool_restarts,
                admission=admission,
                microbatch_rows=spec.microbatch_rows,
                tracer=self.tracer,
            )
            canary_version = registry.register(model_name, model, stage="canary")
            report.registry_versions.append(canary_version)
            front_door = FrontDoor(services)
        report.workers = services["prod"].workers
        tenant_waits: Dict[str, List[float]] = {}
        all_waits: List[float] = []
        try:
            for tick in range(spec.ticks):
                # 1. Chaos: (re-)arm the fault plan at scheduled ticks, closing
                # the accounting interval of the previous arming first.
                if plan is not None and tick in spec.fault_arm_ticks:
                    if armed_interval_open:
                        report.faults_injected += plan.spent()
                    plan.arm()
                    armed_interval_open = True
                    report.faults_armed += 1
                    report.timeline.append(
                        {"tick": tick, "event": "faults_armed", "plan": spec.fault_plan}
                    )

                # 2. Traffic: submit the whole tick, then collect every result.
                requests = [
                    dataclasses.replace(request, sampling_mode=spec.sampling_mode)
                    for request in traffic.requests(tick)
                ]
                handles: List[Tuple[object, RequestSpec]] = []
                report.requests_submitted += len(requests)
                for position, request in enumerate(requests):
                    stage = self._request_stage(tick, position)
                    report.rows_requested += request.n
                    report.requests_by_tenant[request.tenant] = (
                        report.requests_by_tenant.get(request.tenant, 0) + 1
                    )
                    try:
                        if front_door is not None:
                            handle = front_door.submit(request, model=stage)
                        else:
                            handle = services["prod"].submit(request)
                    except ServiceOverloaded as exc:
                        report.requests_rejected += 1
                        report.timeline.append(
                            {
                                "tick": tick,
                                "event": "request_rejected",
                                "tenant": request.tenant,
                                "reason": getattr(exc, "reason", "overloaded"),
                            }
                        )
                        continue
                    report.requests_by_stage[stage] = (
                        report.requests_by_stage.get(stage, 0) + 1
                    )
                    handles.append((handle, request))
                for handle, request in handles:
                    try:
                        table = handle.result()
                    except Exception as exc:
                        report.request_errors += 1
                        report.timeline.append(
                            {"tick": tick, "event": "request_error", "error": str(exc)}
                        )
                        continue
                    report.requests_served += 1
                    report.rows_served += table.n_rows
                    table_fingerprint(table, fingerprint)
                    wait = handle.latency
                    if wait is not None:
                        all_waits.append(wait)
                        tenant_waits.setdefault(request.tenant, []).append(wait)

                # 3. Observation: one window through the drift monitor.
                window = stream.window(tick)
                recent_windows.append(window)
                events = monitor.observe(window)
                report.windows_observed += 1
                for event in events:
                    record = event.as_dict()
                    record["tick"] = tick
                    report.drift_events.append(record)
                    report.timeline.append(
                        {
                            "tick": tick,
                            "event": "drift_detected",
                            "column": event.column,
                            "statistic": event.statistic,
                            "value": round(float(event.value), 12),
                        }
                    )

                # 4. The retrain → canary → promote/rollback loop.
                if events:
                    self._retrain_and_compare(
                        tick=tick,
                        stream=stream,
                        recent_windows=list(recent_windows),
                        registry=registry,
                        model_name=model_name,
                        services=services,
                        monitor=monitor,
                        report=report,
                    )

            if plan is not None and armed_interval_open:
                report.faults_injected += plan.spent()

            all_stats = {name: svc.stats() for name, svc in services.items()}
            report.pool_restarts = sum(s.pool_restarts for s in all_stats.values())
            report.chunk_retries = sum(s.chunk_retries for s in all_stats.values())
            report.chunk_timeouts = sum(s.chunk_timeouts for s in all_stats.values())
            report.hedges = sum(s.hedges for s in all_stats.values())
            report.degraded_passes = sum(s.degraded_passes for s in all_stats.values())
            report.cancelled_requests = sum(
                s.cancelled_requests for s in all_stats.values()
            )
            report.model_swaps = sum(svc.model_swaps for svc in services.values())
            report.p50_latency = _percentile(all_waits, 0.50)
            report.p95_latency = _percentile(all_waits, 0.95)
            report.tenant_waits = {
                tenant: {
                    "requests": float(len(waits)),
                    "p50_wait_s": _percentile(waits, 0.50),
                    "p95_wait_s": _percentile(waits, 0.95),
                }
                for tenant, waits in sorted(tenant_waits.items())
            }
            if front_door is not None:
                report.service_stats = front_door.stats()
            else:
                report.service_stats = {
                    "models": {
                        name: stats.to_dict() for name, stats in all_stats.items()
                    }
                }
            report.obs = {
                name: svc.metrics.snapshot() for name, svc in services.items()
            }
        finally:
            if front_door is not None:
                front_door.close()
            for svc in services.values():
                svc.close()
            if plan is not None:
                plan.cleanup()
            if registry_dir is not None:
                registry_dir.cleanup()

        report.output_fingerprint = fingerprint.hexdigest()
        report.wall_seconds = time.perf_counter() - started
        if report.wall_seconds > 0:
            report.rows_per_second = report.rows_served / report.wall_seconds
        return report

    def _retrain_and_compare(
        self,
        *,
        tick: int,
        stream: WindowStream,
        recent_windows: List[Table],
        registry: ModelRegistry,
        model_name: str,
        services: Dict[str, SamplingService],
        monitor: DriftMonitor,
        report: ScenarioReport,
    ) -> None:
        """Auto-retrain on drifted windows; canary-compare; promote or roll back."""
        spec = self.spec
        corpus = Table.concat(recent_windows)
        report.retrains += 1
        report.timeline.append(
            {
                "tick": tick,
                "event": "retrain_started",
                "corpus_rows": corpus.n_rows,
                "windows": len(recent_windows),
            }
        )
        candidate = self._fit_model(corpus, purpose="retrain", tick=tick)
        version = registry.register(model_name, candidate, stage="canary")
        report.registry_versions.append(version)
        report.timeline.append(
            {"tick": tick, "event": "canary_registered", "version": version}
        )
        if "canary" in services:
            # Front-door mode: the canary *backend* starts serving the
            # candidate immediately — live traffic on the canary stage is the
            # point of running two stages.  The queue is drained here (all
            # tick results collected before observation), so the swap point
            # is deterministic.
            services["canary"].swap_model(candidate)
            report.timeline.append(
                {"tick": tick, "event": "canary_serving", "version": version}
            )

        # Canary comparison on held-out replay traffic: both sides sample
        # with their own derived seeds and score against the same holdout.
        holdout = stream.holdout_window(tick, rows=spec.canary_rows)
        canary_score = self._fidelity(
            candidate, holdout, seed=derive_seed(self.seed, "canary-sample", tick)
        )
        prod_model = registry.get(model_name, "prod")
        prod_score = self._fidelity(
            prod_model, holdout, seed=derive_seed(self.seed, "prod-sample", tick)
        )
        comparison = {
            "tick": tick,
            "event": "canary_comparison",
            "version": version,
            "canary_score": round(canary_score, 12),
            "prod_score": round(prod_score, 12),
        }
        report.timeline.append(comparison)

        if canary_score <= prod_score:
            registry.promote(model_name, version)
            # Zero-downtime: applied once the in-flight requests are
            # delivered.  The canary
            # backend (if any) already serves the candidate.
            services["prod"].swap_model(candidate)
            monitor.rebaseline(corpus)
            report.promotions += 1
            report.final_prod_version = version
            report.timeline.append(
                {"tick": tick, "event": "promoted", "version": version}
            )
        else:
            registry.clear_stage(model_name, "canary")
            if "canary" in services:
                # Roll the canary backend back to the surviving prod model.
                services["canary"].swap_model(prod_model)
            report.rollbacks += 1
            report.timeline.append(
                {"tick": tick, "event": "rolled_back", "version": version}
            )


def run_scenario(
    name: Union[str, ScenarioSpec],
    *,
    seed: int = 7,
    workers: Optional[int] = None,
    registry_root: Optional[Union[str, Path]] = None,
    tracer: Optional[Tracer] = None,
) -> ScenarioReport:
    """Convenience wrapper: build a :class:`ScenarioEngine` and run it."""
    return ScenarioEngine(
        name, seed=seed, workers=workers, registry_root=registry_root, tracer=tracer
    ).run()
