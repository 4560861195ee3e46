"""Deterministic replay streams: windows of drifting data + shaped traffic.

Two seedable generators power every scenario:

* :class:`WindowStream` — the "world": per-tick tables of fresh PanDA-style
  job records from :class:`~repro.panda.generator.PandaWorkloadGenerator`,
  optionally transformed by a :class:`DriftPhase` schedule (gradual or
  abrupt mean/scale/frequency drift) and by degenerate-window injections
  (constant columns, single-category columns, windows too small to score).
  Window ``t`` depends only on ``(config, seed, t)``, never on what was
  generated before it, so streams replay identically from any tick.
* :class:`TrafficModel` — the "load": per-tick
  :class:`~repro.serve.api.RequestSpec` batches whose *count* follows the
  diurnal + burst rate profile of
  :class:`~repro.panda.temporal.ArrivalProcess` and whose *sizes* follow the
  activity-weighted multi-tenant population of
  :class:`~repro.panda.users.UserPopulation` (heavy users issue heavier
  requests, projects are the tenants).  Request seeds are derived per
  ``(scenario seed, tick, index)``, which is what makes whole replay runs —
  including every served byte — reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.panda.generator import GeneratorConfig, PandaWorkloadGenerator
from repro.panda.temporal import ArrivalProcess
from repro.panda.users import UserPopulation
from repro.serve.api import RequestSpec
from repro.tabular.table import Table
from repro.utils.rng import derive_seed

__all__ = ["DriftPhase", "TrafficModel", "WindowStream"]


@dataclass(frozen=True)
class DriftPhase:
    """One scheduled distribution change applied to the window stream.

    kind:
        ``"mean_shift"`` — add ``magnitude`` × (window std) to a numerical
        column; ``"scale"`` — multiply a numerical column by
        ``1 + magnitude``; ``"frequency_shift"`` — reassign a ``magnitude``
        fraction of a categorical column's rows to ``target`` (default: the
        column's modal category).
    start / end:
        Active tick range (``end`` exclusive; ``None`` = to the horizon).
    ramp:
        Ticks over which the effect linearly grows from 0 to ``magnitude``
        after ``start`` — 0 gives an abrupt step, >0 gradual drift.
    """

    column: str
    kind: str
    magnitude: float
    start: int
    end: Optional[int] = None
    ramp: int = 0
    target: Optional[str] = None

    _KINDS = ("mean_shift", "scale", "frequency_shift")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown drift kind {self.kind!r}; use one of {self._KINDS}")
        if self.ramp < 0:
            raise ValueError(f"ramp must be non-negative, got {self.ramp}")

    def strength(self, tick: int) -> float:
        """The effect magnitude at ``tick`` (0 outside the active range)."""
        if tick < self.start or (self.end is not None and tick >= self.end):
            return 0.0
        if self.ramp <= 0:
            return self.magnitude
        progress = min(1.0, (tick - self.start + 1) / self.ramp)
        return self.magnitude * progress

    def apply(self, table: Table, tick: int, rng: np.random.Generator) -> Table:
        strength = self.strength(tick)
        if strength == 0.0 or table.n_rows == 0:
            return table
        if self.kind == "mean_shift":
            values = np.asarray(table[self.column], dtype=np.float64)
            scale = float(values.std()) or 1.0
            return table.with_column(self.column, values + strength * scale, "numerical")
        if self.kind == "scale":
            values = np.asarray(table[self.column], dtype=np.float64)
            return table.with_column(self.column, values * (1.0 + strength), "numerical")
        values = np.asarray(table[self.column]).astype(str)
        if self.target is not None:
            target = self.target
        else:
            cats, counts = np.unique(values, return_counts=True)
            target = str(cats[np.argmax(counts)])
        flip = rng.random(values.size) < min(1.0, strength)
        values = values.copy()
        values[flip] = target
        return table.with_column(self.column, values, "categorical")


class WindowStream:
    """Seedable per-tick window tables with scheduled drift + degenerates.

    Each window is generated through the full panda pipeline (raw records →
    filtering funnel → training schema) from a tick-derived seed, then cut
    to exactly ``window_rows`` rows and passed through the drift schedule.
    ``degenerate_ticks`` maps a tick to an adversarial transform:
    ``"constant"`` (every column collapsed to its first value),
    ``"single_category"`` (categoricals collapsed, numericals kept) or
    ``"tiny"`` (an 8-row stub, below any sane detector's ``min_window``).
    """

    #: Conservative lower bound on the filtering funnel's yield; the stream
    #: asks for ``window_rows / _YIELD`` raw jobs and tops up if a seed's
    #: funnel is unusually selective.
    _YIELD = 0.40

    _DEGENERATE_KINDS = ("constant", "single_category", "tiny")

    def __init__(
        self,
        *,
        window_rows: int,
        seed: int,
        generator: Optional[GeneratorConfig] = None,
        drift_phases: Sequence[DriftPhase] = (),
        degenerate_ticks: Optional[Mapping[int, str]] = None,
    ) -> None:
        if window_rows < 1:
            raise ValueError(f"window_rows must be positive, got {window_rows}")
        self.window_rows = int(window_rows)
        self.seed = int(seed)
        self.generator_config = generator if generator is not None else GeneratorConfig()
        self.drift_phases = tuple(drift_phases)
        self.degenerate_ticks = dict(degenerate_ticks or {})
        for tick, kind in self.degenerate_ticks.items():
            if kind not in self._DEGENERATE_KINDS:
                raise ValueError(
                    f"unknown degenerate kind {kind!r} at tick {tick}; "
                    f"use one of {self._DEGENERATE_KINDS}"
                )
        self._generator = PandaWorkloadGenerator(self.generator_config)

    # -- generation ----------------------------------------------------------------
    def _raw_window(self, rows: int, seed: int) -> Table:
        """Exactly ``rows`` pipeline rows from a derived seed (topped up
        deterministically when a funnel pass under-yields)."""
        raw_jobs = max(rows + 8, math.ceil(rows / self._YIELD))
        for attempt in range(6):
            table = self._generator.generate_training_table(raw_jobs, seed=seed + attempt)
            if table.n_rows >= rows:
                return table.take(np.arange(rows))
            raw_jobs *= 2
        raise RuntimeError(
            f"funnel yield collapsed: could not produce {rows} rows from {raw_jobs} raw jobs"
        )

    def window(self, tick: int) -> Table:
        """The live window observed at ``tick`` (drift + degenerates applied)."""
        table = self._raw_window(self.window_rows, derive_seed(self.seed, "window", tick))
        table = self._apply_drift(table, tick, stream="window")
        degenerate = self.degenerate_ticks.get(tick)
        if degenerate is not None:
            table = self._degenerate(table, degenerate)
        return table

    def holdout_window(self, tick: int, rows: Optional[int] = None) -> Table:
        """Held-out traffic from the same distribution as :meth:`window`.

        Drawn from an independent seed stream, so canary comparisons never
        score a model on the very window that triggered (or trained) it.
        Degenerate injections are *not* applied — holdouts measure the
        distribution, not the adversarial wrapper.
        """
        rows = self.window_rows if rows is None else int(rows)
        table = self._raw_window(rows, derive_seed(self.seed, "holdout", tick))
        return self._apply_drift(table, tick, stream="holdout")

    def training_table(self, rows: int) -> Table:
        """The pre-drift reference corpus (tick ``-1``: no phase is active)."""
        return self._raw_window(rows, derive_seed(self.seed, "train"))

    def _apply_drift(self, table: Table, tick: int, *, stream: str) -> Table:
        for index, phase in enumerate(self.drift_phases):
            rng = np.random.default_rng(
                derive_seed(self.seed, "drift", stream, tick, index)
            )
            table = phase.apply(table, tick, rng)
        return table

    def _degenerate(self, table: Table, kind: str) -> Table:
        if kind == "tiny":
            return table.take(np.arange(min(8, table.n_rows)))
        schema = table.schema
        for name in schema.categorical:
            values = np.asarray(table[name]).astype(str)
            table = table.with_column(name, np.full(values.size, values[0]), "categorical")
        if kind == "constant":
            for name in schema.numerical:
                values = np.asarray(table[name], dtype=np.float64)
                table = table.with_column(name, np.full(values.size, values[0]), "numerical")
        return table


class TrafficModel:
    """Diurnal + burst request arrivals over a multi-tenant population.

    The per-tick request *count* scales the base rate by the
    :class:`ArrivalProcess` intensity at that tick's position on the time
    axis (normalised so the scenario-long mean is the configured base).
    Request *sizes* are drawn per sampled user: each user's gamma-distributed
    activity share scales their request between ``min_rows`` and
    ``max_rows``, and the user's preferred project labels the request's
    tenant — bursty ticks therefore skew both count and tenant mix exactly
    like the paper's workload generators intend.
    """

    def __init__(
        self,
        *,
        seed: int,
        ticks: int,
        n_days: float = 14.0,
        requests_per_tick: int = 4,
        base_rows: int = 512,
        min_rows: int = 64,
        max_rows: int = 4096,
        n_tenants: int = 6,
        n_users: int = 48,
        n_bursts: int = 3,
        tenant_priorities: Optional[Mapping[str, str]] = None,
        default_priority: str = "normal",
        deadline: Optional[float] = None,
    ) -> None:
        if ticks < 1:
            raise ValueError(f"ticks must be positive, got {ticks}")
        if not (0 < min_rows <= base_rows <= max_rows):
            raise ValueError(
                f"need 0 < min_rows <= base_rows <= max_rows, got "
                f"{min_rows}/{base_rows}/{max_rows}"
            )
        self.seed = int(seed)
        self.ticks = int(ticks)
        self.requests_per_tick = int(requests_per_tick)
        self.base_rows = int(base_rows)
        self.min_rows = int(min_rows)
        self.max_rows = int(max_rows)
        self.arrivals = ArrivalProcess.default(
            n_days, n_bursts=n_bursts, seed=derive_seed(self.seed, "arrivals")
        )
        self.population = UserPopulation.default(
            n_users, n_projects=n_tenants, seed=derive_seed(self.seed, "tenants")
        )
        self._tenants = [f"project{i:02d}" for i in range(n_tenants)]
        #: Tenant → service class; tenants not listed get ``default_priority``.
        self.tenant_priorities = dict(tenant_priorities or {})
        self.default_priority = str(default_priority)
        self.deadline = deadline
        times = (np.arange(self.ticks) + 0.5) * (n_days / self.ticks)
        rates = self.arrivals.rate(times)
        self._multipliers = rates / float(np.mean(rates))

    def requests(self, tick: int) -> List[RequestSpec]:
        """The deterministic request batch of one tick.

        Each request carries its tenant's configured priority class (never
        a random draw) and the model's deadline; its sampling mode is the
        spec default, which the scenario engine replaces with its own.
        """
        if not 0 <= tick < self.ticks:
            raise IndexError(f"tick {tick} outside [0, {self.ticks})")
        rng = np.random.default_rng(derive_seed(self.seed, "traffic", tick))
        count = max(1, int(round(self.requests_per_tick * self._multipliers[tick])))
        user_indices = self.population.sample_users(count, rng)
        mean_activity = 1.0 / len(self.population.users)
        requests = []
        for position, user_index in enumerate(user_indices):
            user = self.population.users[int(user_index)]
            # Heavy users issue heavier requests: activity relative to the
            # uniform share scales the base size, jittered log-normally.
            weight = user.activity / mean_activity
            rows = self.base_rows * weight * float(rng.lognormal(0.0, 0.35))
            rows = int(np.clip(round(rows), self.min_rows, self.max_rows))
            tenant = self._tenants[user.preferred_project_index % len(self._tenants)]
            requests.append(
                RequestSpec(
                    n=rows,
                    tenant=tenant,
                    seed=derive_seed(self.seed, "request", tick, position),
                    priority=self.tenant_priorities.get(tenant, self.default_priority),
                    deadline=self.deadline,
                )
            )
        return requests

    def total_requests(self) -> int:
        """Request count over the whole horizon (cheap: counts only)."""
        return sum(len(self.requests(t)) for t in range(self.ticks))
