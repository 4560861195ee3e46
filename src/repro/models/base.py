"""The common surrogate-model interface.

Every generative model in :mod:`repro.models` derives from
:class:`Surrogate`: ``fit`` consumes a mixed-type
:class:`~repro.tabular.table.Table`, ``sample`` returns a synthetic table with
the same schema.  Persistence goes through :meth:`save`/:meth:`load` (pickle
of the fitted object), which is sufficient for experiment pipelines that
retrain from a seed anyway.

Serving modes
-------------
``sample`` accepts ``sampling_mode="exact"`` (the default) or ``"fast"``:

* **exact** — the historical generation path, bit-identical for a fixed seed
  across releases (``tests/test_sampling_equivalence.py`` pins it against the
  verbatim seed implementations).  Use it whenever reproducibility of the
  byte stream matters: experiments, paper artefacts, regression baselines.
* **fast** — the relaxed serving mode: the same fitted model and the same
  output *distribution*, but a different RNG stream and reduced-precision
  (float32) network forwards where that buys throughput.  Models without a
  dedicated relaxed path fall back to the exact one, so ``"fast"`` is always
  safe to request.  Fast-mode outputs are validated distributionally
  (KS / chi-squared against exact-mode samples in
  ``tests/test_serving_modes.py``), never bit-wise.

:meth:`sample_batches` is the streaming companion for serving-scale requests:
it yields the ``n`` requested rows as tables of at most ``chunk_size`` rows,
so a million-row request generates in cache-sized pieces with bounded peak
memory.  Each chunk draws from its own :class:`numpy.random.SeedSequence`
child stream (:func:`chunk_plan`), so the result is deterministic given
``(seed, n, chunk_size)`` but is not the concatenation of a single
``sample(n)`` stream.
"""

from __future__ import annotations

import operator
import pickle
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Type, TypeVar, Union

import numpy as np

from repro.tabular.schema import TableSchema
from repro.tabular.table import Table
from repro.utils.rng import SeedLike, spawn_seed_sequences

PathLike = Union[str, Path]
S = TypeVar("S", bound="Surrogate")

#: The serving modes understood by :meth:`Surrogate.sample`.
SAMPLING_MODES: Tuple[str, ...] = ("exact", "fast")


def check_sample_request(n: int, sampling_mode: str) -> int:
    """Validate a row count and sampling mode; returns the count as an ``int``.

    The one request check of the models, the sharded engine and
    :class:`~repro.serve.api.RequestSpec`.  Numpy integers are normalised to
    ``int``; a ``bool``, a float, a string or any other object raises
    ``TypeError``, a negative count or an unknown mode ``ValueError``.
    """
    if isinstance(n, bool):
        raise TypeError("the row count must be an integer, got bool")
    try:
        n = operator.index(n)
    except TypeError:
        raise TypeError(f"the row count must be an integer, got {type(n).__name__}") from None
    if sampling_mode not in SAMPLING_MODES:
        raise ValueError(f"unknown sampling mode {sampling_mode!r}; use one of {SAMPLING_MODES}")
    if n < 0:
        raise ValueError(f"cannot sample a negative number of rows ({n})")
    return n


def chunk_plan(n: int, chunk_size: int, seed: SeedLike) -> Tuple[List[int], List[np.random.SeedSequence]]:
    """A streamed request's chunk sizes and their seed streams.

    Chunk ``i`` has ``min(chunk_size, n - i * chunk_size)`` rows and draws
    from the ``i``-th :class:`numpy.random.SeedSequence` child of ``seed``.
    :meth:`Surrogate.sample_batches`, the sharded engine and the service's
    dispatcher all chunk through this one plan, so their outputs are
    byte-identical by construction.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    n_chunks = -(-n // chunk_size)
    sizes = [min(chunk_size, n - i * chunk_size) for i in range(n_chunks)]
    return sizes, spawn_seed_sequences(seed, n_chunks)


class Surrogate:
    """Abstract base class of all tabular generative surrogates."""

    #: Human-readable model name (matches the paper's Table I labels).
    name: str = "surrogate"

    #: Attribute names of lazily-rebuilt serving caches (packed float32
    #: weight snapshots, derived block samplers).  They are dropped from
    #: pickles — every consumer rebuilds them with a ``getattr`` guard — so
    #: saved models carry one copy of each network's weights, not two.
    _TRANSIENT_ATTRS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.schema_: Optional[TableSchema] = None
        self.n_training_rows_: Optional[int] = None

    # -- API -------------------------------------------------------------------
    def fit(self, table: Table) -> "Surrogate":
        """Fit the surrogate on a training table."""
        raise NotImplementedError

    def sample(
        self, n: int, *, seed: SeedLike = None, sampling_mode: str = "exact"
    ) -> Table:
        """Draw ``n`` synthetic records with the training schema.

        ``sampling_mode="exact"`` (default) keeps the bit-reproducible
        generation path; ``"fast"`` selects the relaxed serving path where the
        model provides one (same distribution, different stream — see the
        module docstring for the contract).
        """
        n = check_sample_request(n, sampling_mode)
        if sampling_mode == "fast":
            return self._sample_fast(n, seed=seed)
        return self._sample_exact(n, seed=seed)

    def sample_batches(
        self,
        n: int,
        chunk_size: int,
        *,
        seed: SeedLike = None,
        sampling_mode: str = "exact",
    ) -> Iterator[Table]:
        """Stream ``n`` synthetic rows as tables of at most ``chunk_size`` rows.

        Bounded-memory serving API: each chunk is generated (and can be
        consumed, written out or shipped) before the next one exists, so peak
        memory scales with ``chunk_size`` rather than ``n``.  Chunk ``i``
        samples from the ``i``-th :class:`numpy.random.SeedSequence` child of
        ``seed`` (:func:`chunk_plan`) — deterministic for a fixed ``(seed, n,
        chunk_size)``, but a different stream from one monolithic
        ``sample(n)`` call.
        """
        sizes, children = chunk_plan(check_sample_request(n, sampling_mode), chunk_size, seed)
        self._require_fitted()

        def _generate() -> Iterator[Table]:
            for size, child in zip(sizes, children):
                yield self.sample(size, seed=np.random.default_rng(child), sampling_mode=sampling_mode)

        return _generate()

    # -- mode implementations ----------------------------------------------------
    def _sample_exact(self, n: int, *, seed: SeedLike = None) -> Table:
        """The bit-reproducible sampling path (every surrogate provides it)."""
        raise NotImplementedError

    def _sample_fast(self, n: int, *, seed: SeedLike = None) -> Table:
        """The relaxed serving path; defaults to the exact one.

        Single-pass statistical samplers (SMOTE, the Gaussian copula) are
        already one vectorised shot per request, so their fast mode *is* the
        exact mode; the deep surrogates override this with fused/float32
        serving chains.
        """
        return self._sample_exact(n, seed=seed)

    @property
    def supports_fast_sampling(self) -> bool:
        """Whether this surrogate has a dedicated relaxed serving path."""
        return type(self)._sample_fast is not Surrogate._sample_fast

    # -- serving hooks -----------------------------------------------------------
    #: Default chunk size serving layers shard requests into (rows).  Large
    #: enough that per-chunk overhead (RNG spawn, dispatch, table assembly)
    #: amortises, small enough that a chunk's activations stay cache-friendly
    #: and a pool of workers load-balances a request.
    DEFAULT_SERVING_CHUNK = 16_384

    def warm_serving_caches(self, chunk_rows: int = DEFAULT_SERVING_CHUNK) -> int:
        """Build the relaxed serving mode's lazy caches eagerly.

        The fast-path caches (packed float32 weight snapshots, derived block
        samplers — the :attr:`_TRANSIENT_ATTRS`) are built lazily on first
        use and dropped from pickles, so a freshly loaded model pays cache
        construction plus buffer allocation on its first request.  Serving
        layers (the model registry at registration, sharded-sampler workers
        at startup) call this instead, so first-request latency is flat: a
        tiny throwaway draw builds every lazy cache, then each cache that
        exposes a ``warm`` hook pre-sizes its buffers for ``chunk_rows``-row
        requests.  Returns the number of caches pre-sized.
        """
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be at least 1, got {chunk_rows}")
        self._require_fitted()
        self.sample(2, seed=0, sampling_mode="fast")
        warmed = 0
        for attr in self._TRANSIENT_ATTRS:
            warm = getattr(getattr(self, attr, None), "warm", None)
            if callable(warm):
                warm(int(chunk_rows))
                warmed += 1
        return warmed

    def serving_snapshot(self) -> bytes:
        """The fitted surrogate as bytes, for shipping to serving workers.

        Exactly the :meth:`save` payload (transient serving caches dropped —
        each worker rebuilds and warms its own via
        :meth:`warm_serving_caches`), without touching the filesystem.
        """
        self._require_fitted()
        return pickle.dumps(self)

    @classmethod
    def from_snapshot(cls: Type[S], payload: bytes) -> S:
        """Rehydrate a surrogate from :meth:`serving_snapshot` bytes."""
        obj = pickle.loads(payload)
        if not isinstance(obj, cls):
            raise TypeError(
                f"snapshot does not contain a {cls.__name__}, got {type(obj).__name__}"
            )
        return obj

    # -- shared helpers ----------------------------------------------------------
    def _mark_fitted(self, table: Table) -> None:
        if len(table) == 0:
            raise ValueError(f"{type(self).__name__} cannot be fitted on an empty table")
        self.schema_ = table.schema
        self.n_training_rows_ = len(table)

    def _require_fitted(self) -> None:
        if self.schema_ is None:
            raise RuntimeError(
                f"{type(self).__name__} is not fitted; call fit() before sample()"
            )

    @property
    def is_fitted(self) -> bool:
        return self.schema_ is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "fitted" if self.is_fitted else "unfitted"
        return f"{type(self).__name__}({state})"

    # -- persistence --------------------------------------------------------------
    def __getstate__(self):
        state = dict(self.__dict__)
        for attr in self._TRANSIENT_ATTRS:
            state.pop(attr, None)
        return state

    def save(self, path: PathLike) -> None:
        """Serialise the fitted surrogate to ``path`` (pickle)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            pickle.dump(self, fh)

    @classmethod
    def load(cls: Type[S], path: PathLike) -> S:
        """Load a surrogate saved with :meth:`save`."""
        with Path(path).open("rb") as fh:
            obj = pickle.load(fh)
        if not isinstance(obj, cls):
            raise TypeError(f"{path} does not contain a {cls.__name__}")
        return obj
