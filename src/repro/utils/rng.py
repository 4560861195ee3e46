"""Random-number-generator plumbing.

Every stochastic component in the library accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None`` and converts it with
:func:`as_rng`.  Components that need several independent streams (e.g. one
per chunk of a sharded sampling request) use :func:`spawn_seed_sequences`,
which is deterministic given the parent.
"""

from __future__ import annotations

import hashlib
import sys
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


#: ``numpy`` converts a raw 64-bit draw to a double as ``(u >> 11) * 2**-53``.
_U53_INV = 1.0 / 9007199254740992.0
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)
_BOUND32 = np.uint64(0x100000000)
_MOD128 = 1 << 128
_LITTLE = sys.byteorder == "little"

#: Bit generators whose ``random()`` path is one raw 64-bit draw per double
#: and whose 32-bit path is the buffered native ``next_uint32`` (spare half
#: carried in ``has_uint32``/``uinteger`` state) — the layout
#: :func:`fused_column_draws` emulates.
_FUSED_BITGENS = ("PCG64", "PCG64DXSM")


def fused_column_draws(
    rng: np.random.Generator,
    plans: List[tuple],
    *,
    prescreened: bool = False,
) -> Optional[List[tuple]]:
    """Stream-pinned fusion of per-column uniform + bounded-integer draws.

    ``plans`` is a sequence of ``(count, cdf, highs)`` entries.  For each
    entry, in order, the historical code performs two generator calls::

        cats  = cdf.searchsorted(rng.random(count), side="right")
        draws = rng.integers(0, highs[cats])

    This helper produces byte-identical ``(cats, draws)`` results — and
    leaves ``rng`` in a byte-identical end state, spare half-word
    included — from **one** raw block draw plus one stream advance, by
    replaying numpy's own consumption rules over the block:

    * a double is ``(u64 >> 11) * 2**-53`` — one raw draw each;
    * ``integers(0, high)`` with ``high - 1`` in 32-bit range maps one
      *uint32* through Lemire's algorithm; uint32s come from the bit
      generator's buffered ``next_uint32`` (low half first, spare high half
      carried across calls in generator state);
    * a Lemire rejection (probability ``< high / 2**32`` per draw) would
      consume an extra word, shifting every later position — the helper
      detects the case exactly and returns ``None`` with ``rng`` untouched.

    The helper only fuses when every pool can yield a bounded draw
    (``highs > 1`` everywhere): then each element consumes exactly one
    half-word and the stream layout follows from the counts alone.  A
    ``high == 1`` element consumes *nothing* in numpy, which would make the
    layout data-dependent per element — those plans, 64-bit bounds, and
    non-PCG64 generators all return ``None`` up front (generator untouched)
    and the caller falls back to the legacy per-column calls.

    ``prescreened=True`` skips the per-call ``1 < highs < 2**32`` screen;
    callers whose ``highs`` tables are fit-time constants (the condition
    sampler) check once at fit instead of on every batch.  Passing it with
    out-of-range pools voids the byte-identity guarantee.

    ``cdf`` and ``highs`` must already be :class:`numpy.ndarray`; ``cdf``
    must be sorted (the same contract ``searchsorted`` itself has).
    """
    bitgen = rng.bit_generator
    if type(bitgen).__name__ not in _FUSED_BITGENS:
        return None
    # Upper bound on raw 64-bit words: one per uniform plus one per *pair*
    # of bounded draws per column (padding for odd splits and the carry).
    total = 0
    upper = 0
    for count, _cdf, _highs in plans:
        total += count
        upper += count + ((count + 1) >> 1) + 1
    if total == 0:
        return []
    if not prescreened:
        pools = (
            plans[0][2] if len(plans) == 1 else np.concatenate([p[2] for p in plans])
        )
        if int(pools.min()) <= 1 or int(pools.max()) >= 0x100000000:
            return None
    snapshot = bitgen.state
    raw = bitgen.random_raw(upper)
    doubles = (raw >> _SHIFT11).astype(np.float64) * _U53_INV

    # Walk the stream with scalar bookkeeping only — every element consumes
    # one double and one half-word, so each column's slice of the raw block
    # follows from the counts and the carry parity.  The Lemire mapping is
    # deferred and vectorised over all columns at once.
    pos = 0
    avail = 1 if snapshot["has_uint32"] else 0  # pending half-word
    out_cats: List[np.ndarray] = []
    fresh_spans: List[tuple] = []
    for count, cdf, _highs in plans:
        if count == 0:
            out_cats.append(np.empty(0, dtype=np.intp))
            continue
        out_cats.append(cdf.searchsorted(doubles[pos : pos + count], side="right"))
        pos += count
        n_fresh = count - avail
        if n_fresh <= 0:
            avail = 0
            continue
        n_u64 = (n_fresh + 1) >> 1
        fresh_spans.append((pos, n_u64))
        pos += n_u64
        avail = n_fresh & 1

    # ``integers(0, high)`` maps one uint32 word through Lemire with
    # ``rng_excl = (high - 1) + 1 = high``.
    bounds_list = [highs[cats] for cats, (_c, _cdf, highs) in zip(out_cats, plans)]
    rng_excl = (
        bounds_list[0] if len(bounds_list) == 1 else np.concatenate(bounds_list)
    ).astype(np.uint64)
    if len(fresh_spans) == 1:
        start, n_u64 = fresh_spans[0]
        fresh = raw[start : start + n_u64]
    elif fresh_spans:
        fresh = np.concatenate([raw[p : p + n] for p, n in fresh_spans])
    else:  # entry spare covered every bounded draw
        fresh = np.empty(0, dtype=np.uint64)
    # A contiguous little-endian uint64 block *is* its uint32 half-word
    # stream (low half first) — reinterpret instead of splitting.
    if _LITTLE:
        halves = fresh.view(np.uint32)
    else:  # pragma: no cover - big-endian fallback
        halves = np.empty(2 * fresh.size, dtype=np.uint64)
        halves[0::2] = fresh & _MASK32
        halves[1::2] = fresh >> _SHIFT32
    if snapshot["has_uint32"]:
        words = np.empty(total, dtype=np.uint64)
        words[0] = snapshot["uinteger"]
        words[1:] = halves[: total - 1]
    else:
        words = halves[:total].astype(np.uint64)
    m = words * rng_excl
    leftover = m & _MASK32
    maybe = leftover < rng_excl
    if maybe.any():
        excl = rng_excl[maybe]
        if (leftover[maybe] < (_BOUND32 - excl) % excl).any():
            bitgen.state = snapshot
            return None
    draws_all = (m >> _SHIFT32).astype(np.int64)

    draw_parts = []
    offset = 0
    for count, _cdf, _highs in plans:
        draw_parts.append(draws_all[offset : offset + count])
        offset += count

    # Reposition the stream — forward from the over-drawn point by exactly
    # ``pos - upper`` (mod 2**128; PCG64's LCG steps once per 64-bit word) —
    # then restore the half-word buffer numpy would hold.
    bitgen.advance((pos - upper) % _MOD128)
    state = bitgen.state
    state["has_uint32"] = avail
    if fresh_spans:
        # numpy's buffer keeps the high half of the last 32-bit-path draw
        # (pending when ``avail``, stale otherwise — tracked either way so
        # the end state matches the legacy calls bit for bit).
        last_pos, last_n = fresh_spans[-1]
        state["uinteger"] = int(raw[last_pos + last_n - 1] >> _SHIFT32)
    else:
        state["uinteger"] = snapshot["uinteger"]
    bitgen.state = state
    return list(zip(out_cats, draw_parts))


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
