"""Deterministic fault injection for the serving worker pool.

Fault tolerance is only trustworthy if its failure paths are *testable*, and
failure paths are only testable if faults can be produced on demand,
deterministically, and exactly the intended number of times.  This module is
that harness: a picklable, seedable :class:`FaultPlan` describing faults to
inject into specific sampling chunks, installed inside every worker process
by the :mod:`repro.serve.sharded` worker initializer and consulted by the
chunk task right before it samples.

Three fault kinds cover the serving layer's failure surface:

``kill``
    The worker calls ``os._exit`` mid-chunk — the hard crash.  The whole
    pool generation is poisoned (``BrokenProcessPool``), which exercises
    crash recovery: the pool forks fresh workers (the initializer re-runs)
    and the chunk run resubmits every chunk attempt the crash took down.
``delay``
    The worker sleeps ``value`` seconds before sampling — the straggler.
    Exercises per-chunk deadlines (timeout → resubmit) and hedging (a
    duplicate raced against the laggard, first result wins).
``fail``
    The worker raises :class:`InjectedFault` — the transient task error.
    Exercises the bounded per-chunk retry path.

Exactly-once across processes
-----------------------------
Every worker holds its own copy of the installed plan, so in-process
counters cannot implement "fail this chunk once": the retried chunk may land
on a different worker whose copy has not fired yet.  Instead each fault
carries a budget of ``times`` *tokens* claimed through atomic file creation
(``O_CREAT | O_EXCL``) in a shared ``token_dir`` — a cross-process
once-latch.  Whichever worker claims the token injects; every other
execution of the same chunk (the retry, the hedge, a resubmission after a
pool rebuild) runs clean.  That makes chaos runs *reproducible*: the same
plan over the same request injects the same faults, and — by the sharding
seed contract — recovery regenerates byte-identical output.

``FaultPlan.arm()`` clears the tokens so one plan can re-inject across
repeated runs (the fault benchmark re-arms per measured iteration).

The plan reaches workers through :class:`~repro.serve.sharded.ShardedSampler`
(``fault_plan=``), :class:`~repro.serve.service.SamplingService`
(``fault_plan=``) and ``repro-experiments serve --fault-plan "kill@1,..."``.
"""

from __future__ import annotations

import os
import re
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Fault", "FaultPlan", "InjectedFault", "active_plan", "install", "maybe_inject"]

#: Exit code used by ``kill`` faults (recognisable in worker post-mortems).
KILL_EXIT_CODE = 87

#: Fault kinds the plan understands.
FAULT_KINDS = ("kill", "delay", "fail")


class InjectedFault(RuntimeError):
    """The error raised in a worker by a ``fail`` fault."""


@dataclass(frozen=True)
class Fault:
    """One fault: ``kind`` injected into executions of chunk ``chunk``.

    ``value`` is the sleep duration for ``delay`` faults (ignored otherwise)
    and ``times`` is the cross-process injection budget — after ``times``
    claimed injections the fault is spent and the chunk runs clean.
    """

    kind: str
    chunk: int
    value: float = 0.0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {FAULT_KINDS}")
        if self.chunk < 0:
            raise ValueError(f"fault chunk index must be non-negative, got {self.chunk}")
        if self.times < 1:
            raise ValueError(f"fault times must be at least 1, got {self.times}")
        if self.kind == "delay" and self.value <= 0:
            raise ValueError("delay faults need a positive value (seconds)")
        if self.kind != "delay" and self.value:
            raise ValueError(f"{self.kind} faults take no value")


#: Grammar of one ``FaultPlan.parse`` entry: ``kind@chunk[:value][*times]``.
_SPEC_ENTRY = re.compile(
    r"^(?P<kind>[a-z]+)@(?P<chunk>\d+)(?::(?P<value>[0-9.]+))?(?:\*(?P<times>\d+))?$"
)


class FaultPlan:
    """A deterministic, picklable set of :class:`Fault` injections.

    The plan is constructed in the parent process (so every worker shares
    one ``token_dir``) and shipped to workers through the pool initializer.
    It is deliberately *data*: pickling it re-targets the same token
    directory, keeping the exactly-once latch intact across pool
    rebuilds.
    """

    def __init__(self, faults: Sequence[Fault], *, token_dir: Optional[str] = None) -> None:
        self.faults: List[Fault] = list(faults)
        for fault in self.faults:
            if not isinstance(fault, Fault):
                raise TypeError(f"FaultPlan takes Fault entries, got {type(fault).__name__}")
        if token_dir is None:
            token_dir = tempfile.mkdtemp(prefix="repro-fault-plan-")
        self.token_dir = str(token_dir)
        os.makedirs(self.token_dir, exist_ok=True)

    # -- construction ------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str, *, token_dir: Optional[str] = None) -> "FaultPlan":
        """Parse a CLI spec: comma-separated ``kind@chunk[:value][*times]``.

        Examples: ``"kill@1"`` (kill the worker sampling chunk 1, once),
        ``"delay@3:0.25"`` (sleep 250 ms before chunk 3),
        ``"fail@0*2"`` (fail chunk 0 twice before letting it through).
        """
        faults = []
        for raw in spec.split(","):
            entry = raw.strip()
            if not entry:
                continue
            match = _SPEC_ENTRY.match(entry)
            if match is None:
                raise ValueError(
                    f"bad fault spec {entry!r}; expected kind@chunk[:value][*times] "
                    f"with kind in {FAULT_KINDS}"
                )
            faults.append(
                Fault(
                    kind=match.group("kind"),
                    chunk=int(match.group("chunk")),
                    value=float(match.group("value") or 0.0),
                    times=int(match.group("times") or 1),
                )
            )
        if not faults:
            raise ValueError(f"fault spec {spec!r} contains no faults")
        return cls(faults, token_dir=token_dir)

    @classmethod
    def random(
        cls,
        n_chunks: int,
        *,
        n_faults: int = 1,
        kinds: Sequence[str] = FAULT_KINDS,
        delay: float = 0.2,
        seed: int = 0,
        token_dir: Optional[str] = None,
    ) -> "FaultPlan":
        """A seed-deterministic plan: ``n_faults`` draws over the chunk range.

        The same ``(n_chunks, n_faults, kinds, seed)`` always yields the same
        plan — randomised chaos runs stay replayable.
        """
        if n_chunks < 1:
            raise ValueError("n_chunks must be at least 1")
        rng = np.random.default_rng(seed)
        faults = []
        for _ in range(n_faults):
            kind = str(rng.choice(list(kinds)))
            faults.append(
                Fault(
                    kind=kind,
                    chunk=int(rng.integers(0, n_chunks)),
                    value=delay if kind == "delay" else 0.0,
                )
            )
        return cls(faults, token_dir=token_dir)

    # -- lifecycle ---------------------------------------------------------------
    def arm(self) -> "FaultPlan":
        """Reset the exactly-once latches so the plan injects afresh."""
        if os.path.isdir(self.token_dir):
            for name in os.listdir(self.token_dir):
                if name.endswith(".token"):
                    try:
                        os.unlink(os.path.join(self.token_dir, name))
                    except OSError:  # pragma: no cover - racing cleanup
                        pass
        else:  # pragma: no cover - externally removed scratch dir
            os.makedirs(self.token_dir, exist_ok=True)
        return self

    def disarm(self) -> "FaultPlan":
        """Claim every remaining token so nothing injects until :meth:`arm`.

        The scenario engine installs a plan at pool start but only wants it
        firing at scheduled ticks: disarm right after construction, then
        ``arm()`` at each scheduled tick.
        """
        for fault_index, fault in enumerate(self.faults):
            while self._claim(fault_index, fault.times):
                pass
        return self

    def cleanup(self) -> None:
        """Remove the token directory (plans made from parse/random own one)."""
        shutil.rmtree(self.token_dir, ignore_errors=True)

    def spent(self) -> int:
        """Number of injections claimed so far (across all processes)."""
        if not os.path.isdir(self.token_dir):  # pragma: no cover - removed dir
            return 0
        return sum(1 for name in os.listdir(self.token_dir) if name.endswith(".token"))

    # -- injection (worker side) -------------------------------------------------
    def _claim(self, fault_index: int, times: int) -> bool:
        """Atomically claim one of the fault's ``times`` tokens, if any remain."""
        for occurrence in range(times):
            path = os.path.join(self.token_dir, f"{fault_index}.{occurrence}.token")
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return True
        return False

    def inject(self, chunk_index: int) -> None:
        """Perform whatever faults target ``chunk_index`` and still have budget."""
        for fault_index, fault in enumerate(self.faults):
            if fault.chunk != chunk_index:
                continue
            if not self._claim(fault_index, fault.times):
                continue
            if fault.kind == "delay":
                time.sleep(fault.value)
            elif fault.kind == "fail":
                raise InjectedFault(
                    f"injected failure for chunk {chunk_index} (fault #{fault_index})"
                )
            elif fault.kind == "kill":
                os._exit(KILL_EXIT_CODE)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        entries = ", ".join(
            f"{f.kind}@{f.chunk}" + (f":{f.value}" if f.kind == "delay" else "")
            + (f"*{f.times}" if f.times != 1 else "")
            for f in self.faults
        )
        return f"FaultPlan([{entries}])"


#: The plan installed in *this* process (a worker, normally), if any.
_ACTIVE_PLAN: Optional[FaultPlan] = None


def install(plan: Optional[FaultPlan]) -> None:
    """Install ``plan`` as this process's active plan (``None`` uninstalls)."""
    global _ACTIVE_PLAN
    _ACTIVE_PLAN = plan


def active_plan() -> Optional[FaultPlan]:
    return _ACTIVE_PLAN


def maybe_inject(chunk_index: int) -> None:
    """Hook for worker tasks: inject the active plan's faults for this chunk."""
    if _ACTIVE_PLAN is not None:
        _ACTIVE_PLAN.inject(chunk_index)
