"""repro.scenarios — named, seedable, long-horizon replay scenarios.

This package composes the panda workload generators
(:mod:`repro.panda.workload`, :mod:`repro.panda.temporal`,
:mod:`repro.panda.users`) into deterministic replay streams and drives them
through the full serving stack (:class:`~repro.serve.service.SamplingService`
with chunk resilience, crash recovery and fault injection), closing the
loop with drift detection, auto-retrain, canary comparison and promotion.

Scenario catalog
----------------
Run any of these with ``repro-experiments scenario <name> --seed N`` or
:func:`run_scenario`; ``scenario_names()`` lists them programmatically.

``steady-diurnal``
    Stationary diurnal + weekly traffic with campaign bursts; no drift, no
    faults.  The false-positive floor: the monitor must stay silent.
``multi-tenant-burst``
    Bursty contention across 8 tenants and 96 activity-skewed users;
    request counts and sizes whipsaw while the distribution is stationary.
``gradual-drift``
    The workload column's mean ramps up 1.6 sigma over 8 ticks; sustained
    KS breach → auto-retrain → canary → promotion.
``abrupt-drift``
    Step categorical drift: 55 % of ``datatype`` collapses onto the modal
    category at tick 10; JSD breach within the debounce window.
``degenerate-tables``
    Adversarial windows — constant tables, single-category tables, 8-row
    stubs — at isolated ticks.  The monitor neither crashes nor fires.
``chaos-replay``
    50 ticks of sustained traffic with a kill+fail fault plan re-armed
    every tenth tick; every fault recovered, zero lost requests,
    deterministic output fingerprint.
``chaos-drift``
    The proving ground: gradual drift **and** worker kills armed before and
    during the retrain window.  The full loop must complete under fire.

The drift → retrain → canary → promote contract
-----------------------------------------------
1. Every tick the engine feeds one :class:`~repro.scenarios.streams.WindowStream`
   window to a :class:`~repro.metrics.distribution.DriftMonitor` (sliding
   two-sample KS for numerical columns, JSD or chi-squared for categorical,
   thresholds + debounce from :class:`~repro.metrics.distribution.DriftConfig`).
2. A detector fires only after ``debounce`` consecutive breaching windows,
   then latches (one event per sustained episode, not one per window).
3. On any event the engine retrains the surrogate on the concatenation of
   the most recent ``retrain_windows`` observed windows and registers the
   result in the :class:`~repro.serve.registry.ModelRegistry` under the
   ``canary`` stage — ``prod`` keeps serving throughout.
4. Canary comparison: both canary and prod sample ``canary_rows`` rows
   (derived seeds) and are scored — mean Wasserstein + mean JSD — against a
   *held-out* window drawn from an independent seed stream of the same
   drifted distribution.  Lower total wins.
5. Promote: registry ``prod`` pointer flips to the canary version, the
   service hot-swaps the model at its safe point, once the requests in
   flight are delivered (zero lost requests), and the monitor rebaselines
   on the retrain corpus.
   Rollback: the ``canary`` stage is cleared, prod keeps serving, and the
   latched monitor stays quiet until the next rebaseline.

Determinism
-----------
Everything — window contents, request counts/sizes/tenants/seeds, drift
transforms, retrain corpora, canary samples, fault injections — derives
from the scenario seed via :func:`repro.utils.rng.derive_seed`.  The
deterministic core of the :class:`~repro.scenarios.report.ScenarioReport`
(including the SHA-256 fingerprint over every served byte) is therefore
identical across reruns, worker counts, and injected worker kills.
"""

from repro.scenarios.catalog import SCENARIOS, ScenarioSpec, get_scenario, scenario_names
from repro.scenarios.engine import ScenarioEngine, run_scenario
from repro.scenarios.report import ScenarioReport, table_fingerprint
from repro.scenarios.streams import DriftPhase, TrafficModel, WindowStream

__all__ = [
    "SCENARIOS",
    "DriftPhase",
    "ScenarioEngine",
    "ScenarioReport",
    "ScenarioSpec",
    "TrafficModel",
    "WindowStream",
    "get_scenario",
    "run_scenario",
    "scenario_names",
    "table_fingerprint",
]
