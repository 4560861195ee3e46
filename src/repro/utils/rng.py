"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` and converts it with
:func:`as_rng`.  Components that need several independent streams (e.g. one
per chunk of a sharded sampling request) use :func:`spawn_seed_sequences`,
which is deterministic given the parent.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so callers can thread a
    single stream through a pipeline without re-seeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    raise TypeError(f"cannot interpret {type(seed).__name__!r} as a random seed")


def spawn_seed_sequences(seed: SeedLike, n: int) -> List[np.random.SeedSequence]:
    """The ``n`` independent :class:`~numpy.random.SeedSequence` children of
    ``seed``.

    Children are picklable, so work shipped to another process (one chunk
    of a sharded sampling request) draws the same stream there as it would
    in-process: ``numpy.random.default_rng(child)``.

    Child ``i`` is the one a first ``SeedSequence.spawn`` of the parent
    returns at index ``i``, but the parent is only read: ``spawn`` would
    advance its child counter, so a second call with the same
    ``SeedSequence`` (or a ``Generator``'s ``seed_seq``) would get new
    streams.  The same ``(seed, n)`` thus gives the same streams for every
    seed type; only ``None`` draws fresh entropy on each call.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if isinstance(seed, np.random.Generator):
        # Generators carry their own bit generator seed sequence.
        seq = seed.bit_generator.seed_seq  # type: ignore[attr-defined]
    elif isinstance(seed, np.random.SeedSequence):
        seq = seed
    else:
        seq = np.random.SeedSequence(seed)
    return [
        np.random.SeedSequence(seq.entropy, spawn_key=seq.spawn_key + (i,), pool_size=seq.pool_size)
        for i in range(n)
    ]


def derive_seed(base: Optional[int], *names: Iterable[str]) -> int:
    """Derive a deterministic 32-bit seed from a base seed and string labels.

    Used to give each named sub-component (e.g. ``"encoder"``, ``"decoder"``)
    its own reproducible stream without the streams being correlated.
    """
    h = hashlib.sha256()
    h.update(str(base).encode("utf-8"))
    for name in names:
        h.update(b"\x00")
        h.update(str(name).encode("utf-8"))
    return int.from_bytes(h.digest()[:4], "little")
