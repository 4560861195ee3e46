"""The serving request contract: one frozen spec for the whole request layer.

Each layer takes exactly one request form, so the form alone decides the
default sampling mode:

* the request layer — :meth:`~repro.serve.service.SamplingService.submit`
  and :meth:`~repro.serve.service.SamplingService.sample`, the
  :class:`~repro.serve.http.FrontDoor` and its HTTP endpoint, both CLIs and
  the scenario engine — takes a :class:`RequestSpec`, whose
  ``sampling_mode`` defaults to ``"fast"``;
* the model layer and the sharded engine below it —
  :meth:`~repro.models.base.Surrogate.sample` and
  :meth:`~repro.serve.sharded.ShardedSampler.sample` — take ``(n, *,
  seed=None, sampling_mode="exact")``.

The spec carries everything a multi-tenant request needs:

``n`` / ``seed`` / ``sampling_mode``
    What to generate: the row count (an integer), the request's own seed
    (the sharding contract derives every chunk stream from it, so results
    are worker-count-invariant), and ``"fast"`` (distribution-identical
    serving mode, the default) or ``"exact"`` (bit-reproducible).
``tenant``
    The fairness principal.  The dispatcher's weighted fair queue
    schedules across ``(tenant, priority)`` flows, so one tenant's burst
    cannot starve another's steady trickle.
``priority``
    One of the :data:`PRIORITY_CLASSES` (``interactive`` > ``normal`` >
    ``batch``).  The class weight sets the tenant flow's share of service
    capacity; it never affects the request's *bytes*.
``deadline``
    Optional SLO in seconds.  Admission control rejects a request whose
    estimated queue wait already exceeds its deadline
    (:class:`~repro.serve.admission.AdmissionRejected`, HTTP 429) — once
    admitted, a request is always served, which is what keeps scenario
    replays deterministic.

:func:`table_fingerprint` is the byte contract the serving layer is judged
by: a SHA-256 over a table's schema and exact cell bytes, shared by the
scenario reports, the HTTP ``fingerprint_only`` responses and the CI
front-door smoke.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

import numpy as np

from repro.models.base import check_sample_request
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, as_rng

__all__ = [
    "PRIORITY_CLASSES",
    "PriorityClass",
    "RequestSpec",
    "priority_weight",
    "table_fingerprint",
]


@dataclass(frozen=True)
class PriorityClass:
    """One service class: its fair-queueing weight and SLO intent."""

    name: str
    #: Relative share of dispatcher capacity a flow of this class receives
    #: when competing (weighted fair queueing: cost = rows / weight).
    weight: int
    description: str


#: The three service classes, highest priority first.  Weights are the fair
#: shares: an ``interactive`` flow advances 4 rows for every 1 a ``batch``
#: flow advances when both are backlogged.
PRIORITY_CLASSES: Dict[str, PriorityClass] = {
    "interactive": PriorityClass(
        "interactive", 4, "latency-sensitive callers (dashboards, notebooks)"
    ),
    "normal": PriorityClass("normal", 2, "the default service class"),
    "batch": PriorityClass("batch", 1, "throughput-oriented bulk exports"),
}


def priority_weight(priority: str) -> int:
    """The fair-queueing weight of a priority class (KeyError on unknown)."""
    try:
        return PRIORITY_CLASSES[priority].weight
    except KeyError:
        known = ", ".join(PRIORITY_CLASSES)
        raise KeyError(f"unknown priority {priority!r}; use one of: {known}") from None


@dataclass(frozen=True)
class RequestSpec:
    """One sampling request: the request layer's only form.

    Every field is checked at construction, in the caller's frame, so a bad
    request never reaches the dispatcher; ``n`` must be an integer.
    """

    n: int
    seed: SeedLike = None
    sampling_mode: str = "fast"
    tenant: str = "default"
    priority: str = "normal"
    #: Optional SLO (seconds from submission): admission control rejects the
    #: request up front when its estimated wait already blows the deadline.
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_sample_request(self.n, self.sampling_mode))
        if not self.tenant or not isinstance(self.tenant, str):
            raise ValueError(f"tenant must be a non-empty string, got {self.tenant!r}")
        if self.priority not in PRIORITY_CLASSES:
            known = ", ".join(PRIORITY_CLASSES)
            raise ValueError(
                f"unknown priority {self.priority!r}; use one of: {known}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive or None, got {self.deadline}")
        # A seed the model layer cannot read (a float, a string, a list) is
        # rejected here, not in the dispatcher.
        as_rng(self.seed)

    @property
    def weight(self) -> int:
        """The request's fair-queueing weight (from its priority class)."""
        return PRIORITY_CLASSES[self.priority].weight

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (non-scalar seeds render as their repr)."""
        seed: object = self.seed
        if seed is not None and not isinstance(seed, int):
            seed = int(seed) if isinstance(seed, np.integer) else repr(seed)
        return {
            "n": self.n,
            "seed": seed,
            "sampling_mode": self.sampling_mode,
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline": self.deadline,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "RequestSpec":
        """Build a spec from a JSON-ish mapping (the HTTP/CLI parse path).

        Accepts exactly the dataclass field names (plus ``rows`` as an alias
        for ``n``); unknown keys raise ``ValueError`` so a typo'd knob fails
        loudly instead of silently serving defaults.  ``n`` and ``seed`` pass
        through unconverted: a fractional count or seed raises ``TypeError``
        instead of being truncated.
        """
        fields = {"n", "seed", "sampling_mode", "tenant", "priority", "deadline"}
        data = dict(payload)
        if "rows" in data and "n" not in data:
            data["n"] = data.pop("rows")
        unknown = sorted(set(data) - fields)
        if unknown:
            raise ValueError(
                f"unknown request field(s) {unknown}; known fields: {sorted(fields)} (or 'rows')"
            )
        if "n" not in data:
            raise ValueError("request needs 'n' (or 'rows'): the row count")
        kwargs: Dict[str, object] = {"n": data["n"]}
        if data.get("seed") is not None:
            kwargs["seed"] = data["seed"]
        for key in ("sampling_mode", "tenant", "priority"):
            if data.get(key) is not None:
                kwargs[key] = str(data[key])
        if data.get("deadline") is not None:
            kwargs["deadline"] = float(data["deadline"])  # type: ignore[arg-type]
        return cls(**kwargs)  # type: ignore[arg-type]


def table_fingerprint(table: Table, state: Optional["hashlib._Hash"] = None) -> str:
    """SHA-256 over a table's schema and exact column bytes.

    Numerical columns hash their float64 buffer (bit-exact), categorical
    columns their NUL-joined string values — so two tables fingerprint
    equal iff they are byte-identical in every cell.  Passing a running
    ``state`` folds the table into an existing digest (the scenario engine
    streams every served request through one hash).
    """
    own = state is None
    h = hashlib.sha256() if own else state
    schema = table.schema
    h.update(("|".join(schema.names) + f"#{table.n_rows}").encode("utf-8"))
    for name in schema.numerical:
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(np.asarray(table[name], dtype=np.float64)).tobytes())
    for name in schema.categorical:
        h.update(name.encode("utf-8"))
        h.update("\x00".join(np.asarray(table[name]).astype(str).tolist()).encode("utf-8"))
    return h.hexdigest() if own else ""
