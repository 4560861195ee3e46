"""SLO-aware admission control.

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
  feeds at every delivery, floored at 1 row/s) already exceeds that
  deadline.  No rate observed yet → no deadline rejections (the estimator
  never guesses).

The determinism contract: admission decides *whether* a request enters the
queue, never *what* it returns — an admitted request is always served with
its own seed's bytes.  Scenario replays therefore stay fingerprint-identical
as long as their admission bounds are generous enough to admit everything,
which the catalog specs guarantee by construction.
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
    "ServiceOverloaded",
]


#: Floor (rows/s) the wait estimator never drops under, so one slow
#: delivery cannot make the estimator reject everything forever.
_MIN_RATE_FLOOR = 1.0
#: Smoothing factor of the dispatcher-fed EMAs behind the service-rate
#: estimate (rows and seconds per delivery).
_RATE_SMOOTHING = 0.3


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

    Both caps default to disabled.  The deadline signal has no field here:
    a request carries its own
    :attr:`~repro.serve.api.RequestSpec.deadline`.
    """

    #: Reject when this many requests are already admitted-but-undelivered.
    max_queue_depth: Optional[int] = None
    #: Reject when admitting would exceed this many undelivered rows.
    max_backlog_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth is not None and self.max_queue_depth < 0:
            raise ValueError(
                f"max_queue_depth must be non-negative or None, got {self.max_queue_depth}"
            )
        if self.max_backlog_rows is not None and self.max_backlog_rows < 0:
            raise ValueError(
                f"max_backlog_rows must be non-negative or None, got {self.max_backlog_rows}"
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
            alpha = _RATE_SMOOTHING
            ema_rows, ema_seconds = self._ema or (rows, seconds)  # the first delivery seeds both
            self._ema = (alpha * rows + (1 - alpha) * ema_rows, alpha * seconds + (1 - alpha) * ema_seconds)

    def estimated_wait(self, backlog_rows: int) -> Optional[float]:
        """Estimated seconds to drain ``backlog_rows``; None before any data."""
        with self._lock:
            ema = self._ema
        if ema is None:
            return None
        return backlog_rows / max(ema[0] / ema[1], _MIN_RATE_FLOOR)

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
