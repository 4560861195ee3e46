"""SLO-aware admission control and queue-depth autoscaling policies.

Admission control generalizes the service's original row-budget overload
signal: instead of only *blocking* when the in-flight budget fills, the
service can *reject* a request up front — the honest answer under sustained
overload, and the one an HTTP front door can turn into a ``429``.  Three
independent signals, each optional:

* **queue depth** — reject when the number of admitted-but-undelivered
  requests has reached ``max_queue_depth``;
* **backlog rows** — reject when admitting the request would push the
  admitted-but-undelivered row count past ``max_backlog_rows``;
* **deadline (SLO)** — reject a request carrying a
  :attr:`~repro.serve.api.RequestSpec.deadline` whose *estimated* queue
  wait (backlog rows / observed service rate, from EMAs the dispatcher
  feeds at every delivery) already exceeds that deadline.  No rate
  observed yet → no deadline rejections (the estimator never guesses).

The determinism contract: admission decides *whether* a request enters the
queue, never *what* it returns — an admitted request is always served with
its own seed's bytes.  Scenario replays therefore stay fingerprint-identical
as long as their admission bounds are generous enough to admit everything,
which the catalog specs guarantee by construction.

:class:`AutoscalePolicy` is the sibling knob set for demand-driven
worker scaling: at every refill of its pipeline, the dispatcher computes
``ceil(demand_rows / rows_per_worker)`` within ``[min_workers,
max_workers]``, capped at the core budget
(:func:`~repro.utils.parallel.available_workers`), where the demand is the
rows queued plus the rows in flight.  A resize stops the refills: it
applies at the safe point, once every in-flight request is delivered.
Scaling up is immediate; scaling down waits for ``shrink_patience``
consecutive under-demand refills so a lull between bursts does not thrash
the pool.  Resizing never changes output bytes — the sharding contract
makes chunk streams worker-count-invariant.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.serve.api import RequestSpec

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AdmissionRejected",
    "AutoscalePolicy",
    "ServiceOverloaded",
]


class ServiceOverloaded(RuntimeError):
    """Raised by non-blocking submission when the in-flight budget is full."""


class AdmissionRejected(ServiceOverloaded):
    """An admission-control rejection; carries the reason and retry hint.

    Subclasses :class:`ServiceOverloaded` so existing overload handling
    (``except ServiceOverloaded``) keeps working; the HTTP front door maps
    it to ``429 Too Many Requests`` with a ``Retry-After`` hint.
    """

    def __init__(self, message: str, *, reason: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: One of ``"queue_depth"`` / ``"backlog_rows"`` / ``"deadline"``.
        self.reason = reason
        #: Suggested client backoff in seconds (the HTTP ``Retry-After``).
        self.retry_after = retry_after


@dataclass(frozen=True)
class AdmissionPolicy:
    """Bounds at which the service rejects instead of queueing.

    All three signals default to disabled; an all-``None`` policy admits
    everything (the pre-admission-control behaviour).
    """

    #: Reject when this many requests are already admitted-but-undelivered.
    max_queue_depth: Optional[int] = None
    #: Reject when admitting would exceed this many undelivered rows.
    max_backlog_rows: Optional[int] = None
    #: Floor (rows/s) the wait estimator never drops under, so one slow
    #: batch cannot make the estimator reject everything forever.
    min_rate_floor: float = 1.0
    #: Smoothing factor of the dispatcher-fed EMAs behind the service-rate
    #: estimate (rows and seconds per delivery).
    rate_smoothing: float = 0.3

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be non-negative or None, got {self.max_queue_depth}"
            )
        if self.max_backlog_rows is not None and self.max_backlog_rows < 0:
            raise ValueError(
                f"max_backlog_rows must be non-negative or None, got {self.max_backlog_rows}"
            )
        if self.min_rate_floor <= 0:
            raise ValueError(f"min_rate_floor must be positive, got {self.min_rate_floor}")
        if not 0 < self.rate_smoothing <= 1:
            raise ValueError(
                f"rate_smoothing must be in (0, 1], got {self.rate_smoothing}"
            )


class AdmissionController:
    """Apply an :class:`AdmissionPolicy`; keep the admission counters.

    The service consults :meth:`check` (under its own queue lock) before
    admitting, and feeds :meth:`observe_batch` once per delivered request
    so the deadline estimator tracks the real service rate.
    """

    def __init__(self, policy: AdmissionPolicy, metrics: Optional[MetricsRegistry] = None) -> None:
        self.policy = policy
        self._lock = threading.Lock()
        #: EMAs of (rows, seconds) per delivery; None until observed.
        self._ema: Optional[Tuple[float, float]] = None
        registry = metrics if metrics is not None else MetricsRegistry()
        self._m_admitted = registry.counter(
            "repro_serve_admission_admitted_total", "Requests admitted to the queue."
        )
        self._m_rejected = registry.counter(
            "repro_serve_admission_rejected_total",
            "Requests rejected at admission, by reason.",
            labels=("reason",),
        )

    # -- the decision ------------------------------------------------------------
    def check(self, spec: RequestSpec, *, pending_requests: int, backlog_rows: int) -> None:
        """Admit (count + return) or reject (raise :class:`AdmissionRejected`).

        ``pending_requests`` / ``backlog_rows`` are the service's
        admitted-but-undelivered request and row counts at decision time.
        """
        policy = self.policy
        if (
            policy.max_queue_depth is not None
            and pending_requests >= policy.max_queue_depth
        ):
            self._reject(
                "queue_depth",
                f"queue depth {pending_requests} at its limit "
                f"({policy.max_queue_depth}); retry later",
                retry_after=self._drain_estimate(backlog_rows),
            )
        if (
            policy.max_backlog_rows is not None
            and backlog_rows + spec.n > policy.max_backlog_rows
        ):
            self._reject(
                "backlog_rows",
                f"backlog of {backlog_rows} rows cannot absorb {spec.n} more "
                f"(limit {policy.max_backlog_rows}); retry later",
                retry_after=self._drain_estimate(backlog_rows),
            )
        if spec.deadline is not None:
            wait = self.estimated_wait(backlog_rows)
            if wait is not None and wait > spec.deadline:
                self._reject(
                    "deadline",
                    f"estimated queue wait {wait:.2f}s exceeds the request's "
                    f"{spec.deadline:.2f}s deadline",
                    retry_after=wait,
                )
        self._m_admitted.inc()

    def _reject(self, reason: str, message: str, *, retry_after: float) -> None:
        self._m_rejected.inc(reason=reason)
        raise AdmissionRejected(
            message, reason=reason, retry_after=max(0.1, round(retry_after, 3))
        )

    # -- the rate estimator ------------------------------------------------------
    def observe_batch(self, rows: int, seconds: float) -> None:
        """Fold one delivery into the service-rate estimate.

        The dispatcher passes a delivered request's rows and the time since
        the later of its dispatch and the previous delivery.  Those
        intervals tile the pipeline's busy time without overlap.  Rows and
        seconds are smoothed separately and the rate is their ratio: requests
        whose chunks finish together are delivered microseconds apart, and
        an average of per-delivery rates would read that as a near-infinite
        rate.
        """
        if rows <= 0 or seconds <= 0:
            return
        with self._lock:
            alpha = self.policy.rate_smoothing
            ema_rows, ema_seconds = self._ema or (rows, seconds)  # the first delivery seeds both
            self._ema = (alpha * rows + (1 - alpha) * ema_rows, alpha * seconds + (1 - alpha) * ema_seconds)

    def estimated_wait(self, backlog_rows: int) -> Optional[float]:
        """Estimated seconds to drain ``backlog_rows``; None before any data."""
        with self._lock:
            ema = self._ema
        if ema is None:
            return None
        return backlog_rows / max(ema[0] / ema[1], self.policy.min_rate_floor)

    def _drain_estimate(self, backlog_rows: int) -> float:
        wait = self.estimated_wait(backlog_rows)
        return wait if wait is not None else 1.0

    # -- reporting ---------------------------------------------------------------
    def snapshot(self) -> Dict[str, int]:
        """Point-in-time admission counters (stable field names).

        Reads the metrics registry — these numbers and the
        ``repro_serve_admission_*`` series on ``/metrics`` are the same by
        construction.
        """
        return {
            "admitted": int(self._m_admitted.total()),
            "rejected": int(self._m_rejected.total()),
            "rejected_queue_depth": int(self._m_rejected.value(reason="queue_depth")),
            "rejected_backlog_rows": int(self._m_rejected.value(reason="backlog_rows")),
            "rejected_deadline": int(self._m_rejected.value(reason="deadline")),
        }


@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth-driven worker scaling bounds for the service dispatcher."""

    min_workers: int = 1
    max_workers: int = 4
    #: Demand grain: the target worker count is
    #: ``ceil(demand_rows / rows_per_worker)`` clamped to the bounds above.
    rows_per_worker: int = 50_000
    #: Consecutive under-demand refills required before shrinking.
    shrink_patience: int = 3

    def __post_init__(self) -> None:
        if self.min_workers < 1:
            raise ValueError(f"min_workers must be at least 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})"
            )
        if self.rows_per_worker < 1:
            raise ValueError(
                f"rows_per_worker must be positive, got {self.rows_per_worker}"
            )
        if self.shrink_patience < 1:
            raise ValueError(
                f"shrink_patience must be at least 1, got {self.shrink_patience}"
            )

    def target_workers(self, demand_rows: int) -> int:
        """The worker count the demand calls for, clamped to the bounds."""
        wanted = -(-max(0, demand_rows) // self.rows_per_worker) if demand_rows else 0
        return max(self.min_workers, min(self.max_workers, wanted))
