"""The named scenario catalog.

Each entry is a fully declarative :class:`ScenarioSpec` — the engine holds
all behaviour, the spec holds only knobs, so a scenario is reproducible
from its name + seed alone.  Sizes here are deliberately modest (seconds,
not minutes, on a laptop); the CLI's ``--ticks/--window-rows/--requests``
overrides scale any of them up to the long-horizon runs the ROADMAP names.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

from repro.metrics.distribution import DriftConfig
from repro.scenarios.streams import DriftPhase
from repro.serve.api import PRIORITY_CLASSES

__all__ = ["ScenarioSpec", "get_scenario", "scenario_names", "SCENARIOS"]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one replay scenario."""

    name: str
    description: str
    #: Replay horizon (one tick = one traffic batch + one observed window).
    ticks: int = 16
    #: Rows per observed drift-monitor window.
    window_rows: int = 384
    #: Rows of the pre-drift training corpus (reference + initial model).
    train_rows: int = 1536
    #: Traffic shaping (see :class:`~repro.scenarios.streams.TrafficModel`).
    requests_per_tick: int = 4
    base_rows: int = 448
    min_rows: int = 256
    max_rows: int = 1536
    n_tenants: int = 5
    n_users: int = 40
    n_bursts: int = 3
    n_days: float = 14.0
    #: Surrogate + serving knobs.
    model: str = "copula"
    sampling_mode: str = "fast"
    chunk_size: int = 128
    max_pool_restarts: int = 8
    #: Drift schedule applied to the window stream.
    drift_phases: Tuple[DriftPhase, ...] = ()
    #: Adversarial windows: tick -> "constant" | "single_category" | "tiny".
    degenerate_ticks: Mapping[int, str] = field(default_factory=dict)
    #: Drift-monitor thresholds/debounce.
    drift: DriftConfig = field(default_factory=DriftConfig)
    #: Fault plan spec (``repro.serve.faults.FaultPlan.parse`` syntax) and
    #: the ticks at which it is (re-)armed.  Empty = no chaos.
    fault_plan: Optional[str] = None
    fault_arm_ticks: Tuple[int, ...] = ()
    #: Auto-retrain knobs: windows concatenated into the retrain corpus and
    #: rows sampled per side for the canary fidelity comparison.
    retrain_windows: int = 3
    canary_rows: int = 1024
    #: Multi-tenant front-door knobs.  ``tenant_priorities`` maps tenants to
    #: service classes (unlisted tenants get ``default_priority``);
    #: ``request_deadline`` is the SLO every request carries into admission
    #: control; ``microbatch_rows`` bounds the rows in flight in the
    #: dispatcher's pipeline, so under a backlog the weighted fair order
    #: decides which request enters the pool next.
    tenant_priorities: Mapping[str, str] = field(default_factory=dict)
    default_priority: str = "normal"
    request_deadline: Optional[float] = None
    microbatch_rows: Optional[int] = None
    #: Admission bounds (None = that signal disabled).  Catalog entries use
    #: generous values so deterministic replays admit everything — the report
    #: proves it with ``requests_rejected == 0``.
    admission_max_queue_depth: Optional[int] = None
    admission_max_backlog_rows: Optional[int] = None
    #: Front-door mode: serve the registry's ``prod`` *and* ``canary`` stages
    #: concurrently behind a FrontDoor, steering a seed-derived
    #: ``canary_share`` of traffic to the canary backend.
    front_door: bool = False
    canary_share: float = 0.0

    def __post_init__(self) -> None:
        if self.ticks < 1:
            raise ValueError(f"ticks must be positive, got {self.ticks}")
        if self.fault_arm_ticks and not self.fault_plan:
            raise ValueError("fault_arm_ticks given without a fault_plan")
        bad = [t for t in self.fault_arm_ticks if not 0 <= t < self.ticks]
        if bad:
            raise ValueError(f"fault_arm_ticks outside [0, {self.ticks}): {bad}")
        for priority in (self.default_priority, *self.tenant_priorities.values()):
            if priority not in PRIORITY_CLASSES:
                known = ", ".join(PRIORITY_CLASSES)
                raise ValueError(f"unknown priority {priority!r}; use one of: {known}")
        if not 0.0 <= self.canary_share < 1.0:
            raise ValueError(f"canary_share must be in [0, 1), got {self.canary_share}")
        if self.canary_share > 0 and not self.front_door:
            raise ValueError("canary_share needs front_door=True (two serving stages)")

    def scaled(self, **overrides: object) -> "ScenarioSpec":
        """A copy with fields overridden (the CLI's scaling hook)."""
        return replace(self, **overrides)


def _spec(**kwargs: object) -> ScenarioSpec:
    return ScenarioSpec(**kwargs)  # type: ignore[arg-type]


SCENARIOS: Dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        _spec(
            name="steady-diurnal",
            description=(
                "Stationary baseline: diurnal + weekly traffic with campaign "
                "bursts, no drift, no faults.  The drift monitor must stay "
                "silent end to end (false-positive floor)."
            ),
            ticks=24,
            requests_per_tick=4,
        ),
        _spec(
            name="multi-tenant-burst",
            description=(
                "Bursty multi-tenant contention: more tenants, heavier "
                "activity skew and doubled campaign bursts — request counts "
                "and sizes whipsaw while the distribution stays stationary."
            ),
            ticks=24,
            requests_per_tick=7,
            n_tenants=8,
            n_users=96,
            n_bursts=6,
            base_rows=384,
            max_rows=2048,
            microbatch_rows=1024,
        ),
        _spec(
            name="multi-tenant-slo",
            description=(
                "The front-door proving ground: six tenants across the three "
                "service classes drive broker-routed traffic through prod and "
                "canary stages serving concurrently, with SLO deadlines, "
                "admission bounds and bounded micro-batches active.  "
                "Expected: zero rejections, zero lost requests, and a report "
                "fingerprint invariant across reruns and worker counts."
            ),
            ticks=20,
            requests_per_tick=6,
            n_tenants=6,
            n_users=72,
            n_bursts=4,
            base_rows=384,
            max_rows=1536,
            tenant_priorities={
                "project00": "interactive",
                "project01": "interactive",
                "project02": "normal",
                "project03": "normal",
                "project04": "batch",
                "project05": "batch",
            },
            request_deadline=900.0,
            microbatch_rows=2048,
            admission_max_queue_depth=4096,
            admission_max_backlog_rows=8_000_000,
            front_door=True,
            canary_share=0.25,
        ),
        _spec(
            name="gradual-drift",
            description=(
                "Slow numerical drift: the workload column's mean ramps up by "
                "1.6 sigma over 8 ticks starting at tick 6.  Expected: "
                "sustained KS breach -> auto-retrain -> canary -> promotion."
            ),
            ticks=28,
            drift_phases=(
                DriftPhase(
                    column="workload", kind="mean_shift", magnitude=1.6, start=6, ramp=8
                ),
            ),
        ),
        _spec(
            name="abrupt-drift",
            description=(
                "Step categorical drift: at tick 10, 55% of datatype values "
                "collapse onto the modal category.  Expected: JSD breach "
                "within the debounce window -> retrain -> promotion."
            ),
            ticks=24,
            drift_phases=(
                DriftPhase(
                    column="datatype", kind="frequency_shift", magnitude=0.55, start=10
                ),
            ),
        ),
        _spec(
            name="degenerate-tables",
            description=(
                "Adversarial windows: constant tables, single-category "
                "tables and 8-row stubs injected at isolated ticks.  The "
                "monitor must neither crash nor fire (debounce absorbs "
                "isolated spikes; tiny windows are skipped), and serving "
                "must be unaffected."
            ),
            ticks=18,
            degenerate_ticks={4: "constant", 8: "tiny", 12: "single_category"},
        ),
        _spec(
            name="chaos-replay",
            description=(
                "Long-horizon chaos without drift: a kill+fail fault plan "
                "re-armed every tenth tick across sustained traffic.  "
                "Expected: every fault recovered, zero lost requests, "
                "deterministic output fingerprint."
            ),
            ticks=50,
            requests_per_tick=6,
            fault_plan="kill@1,fail@2",
            fault_arm_ticks=(5, 15, 25, 35, 45),
            max_pool_restarts=12,
        ),
        _spec(
            name="chaos-drift",
            description=(
                "The proving ground: gradual workload drift (1.8 sigma over "
                "5 ticks from tick 4) with worker kills armed before and "
                "during the retrain window.  Expected: drift detected -> "
                "auto-retrain -> canary registered -> comparison passes -> "
                "promotion to prod, with zero lost requests throughout."
            ),
            ticks=18,
            drift_phases=(
                DriftPhase(
                    column="workload", kind="mean_shift", magnitude=1.8, start=4, ramp=5
                ),
            ),
            fault_plan="kill@1",
            fault_arm_ticks=(3, 12),
        ),
    )
}


def scenario_names() -> List[str]:
    """Catalog names, in definition order."""
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name (with a helpful error)."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}") from None
