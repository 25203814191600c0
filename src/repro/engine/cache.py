"""Memoized SVD / low-rank decompositions shared across sweeps.

Every experiment sweep re-decomposes the same per-layer weight matrices for
many (array size, noise level, rank, group) combinations, and the truncated
SVD underlying :func:`repro.lowrank.decompose.decompose` is by far the most
expensive step.  Two observations make memoization safe and very effective:

* the full thin SVD of a (sub-)matrix does not depend on the requested rank —
  every rank shares one factorization, truncated after the fact, and the
  truncation of a cached SVD is bit-identical to a direct
  :func:`~repro.lowrank.decompose.decompose` call;
* column-block SVDs only depend on (matrix content, group count), so group
  sweeps share the block factorizations too.

The cache is keyed by a content hash of the matrix bytes plus the requested
``(rank, groups)``, so logically identical matrices hit regardless of object
identity.  A module-level default cache is shared by the execution contexts
and anything else that decomposes weights repeatedly.

The in-memory cache is **LRU-bounded** (``maxsize`` entries; the thin SVD of
a large layer is three dense matrices, so unbounded growth across a long
scenario sweep would eventually dominate resident memory).  Attaching a
persistent :class:`repro.store.ExperimentStore` (``attach_store``) makes the
cache a two-level hierarchy: every computed SVD is written through to the
store (kind ``svd``), an in-memory miss consults the store before falling
back to LAPACK, and an eviction therefore never loses work — the factors
remain recoverable, bit-identical, by any process sharing the store.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple, Union

import numpy as np

from ..backend import Backend, resolve_backend
from ..lowrank.decompose import LowRankFactors
from ..lowrank.group import GroupLowRankFactors, split_columns

__all__ = [
    "DEFAULT_SVD_CACHE_ENTRIES",
    "matrix_fingerprint",
    "truncate_svd",
    "DecompositionCache",
    "default_decomposition_cache",
    "cached_decompose",
    "cached_group_decompose",
]

#: In-memory LRU bound of the process-wide default cache.  The default sweeps
#: decompose a few hundred distinct (sub-)matrices; the bound only bites on
#: much larger scenario grids, where the persistent store absorbs the spill.
DEFAULT_SVD_CACHE_ENTRIES = 512


def matrix_fingerprint(matrix: np.ndarray) -> Tuple[Tuple[int, ...], str, str]:
    """Content-addressed key of a matrix: (shape, dtype, blake2b of the bytes)."""
    data = np.ascontiguousarray(matrix)
    digest = hashlib.blake2b(data.tobytes(), digest_size=16).hexdigest()
    return (tuple(data.shape), str(data.dtype), digest)


def truncate_svd(
    svd: Tuple[np.ndarray, np.ndarray, np.ndarray], rank: int
) -> LowRankFactors:
    """Rank-``rank`` factors ``(U_k·S_k, Vt_k)`` of a thin SVD (rank clamped to its size)."""
    u, s, vt = svd
    rank = min(rank, s.shape[0])
    return LowRankFactors(left=u[:, :rank] * s[:rank], right=vt[:rank, :])


def _store_token(key: Tuple[Tuple[int, ...], str, str]) -> str:
    """Flatten a matrix fingerprint into a store-safe filename token."""
    shape, dtype, digest = key
    return f"{digest}_{'x'.join(str(dim) for dim in shape)}_{dtype}"


class DecompositionCache:
    """Memoizes thin SVDs and the (group) low-rank factorizations built on them.

    ``maxsize`` bounds the in-memory entry count with LRU eviction
    (``None`` = unbounded).  ``attach_store`` adds a persistent second level:
    computed SVDs are written through, and in-memory misses consult the store
    before recomputing.
    """

    def __init__(self, maxsize: Optional[int] = DEFAULT_SVD_CACHE_ENTRIES) -> None:
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be positive or None, got {maxsize}")
        self.maxsize = maxsize
        self._svds: "OrderedDict[object, Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        # The module-level default cache is shared by the server's job
        # threads; the LRU bookkeeping (move_to_end / popitem) must not race.
        # SVD computation and store I/O happen outside the lock.
        self._lock = threading.Lock()
        self._store = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.store_hits = 0

    def attach_store(self, store) -> None:
        """Spill to / refill from a persistent ``repro.store.ExperimentStore``.

        In a process-parallel sweep (:mod:`repro.parallel`) every worker
        attaches the shared store to its process-local cache: the first
        worker to need an SVD computes and spills it, the siblings refill
        bit-identically instead of recomputing — the store turns N per-process
        caches into one shared second level.
        """
        self._store = store

    def detach_store(self) -> None:
        self._store = None

    @property
    def store_attached(self) -> bool:
        """Whether a persistent second level is currently attached."""
        return self._store is not None

    def counters(self) -> "dict[str, int]":
        """Hit/miss/eviction/refill counters (worker summaries report these)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "store_hits": self.store_hits,
        }

    def svd(
        self, matrix: np.ndarray, backend: Union[str, Backend, None] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Full thin SVD ``(U, S, Vt)`` of a matrix, cached by content.

        The factorization runs through the execution backend
        (:mod:`repro.backend`; ``None`` resolves to the active default): the
        matrix is first cast to the backend's compute dtype, so the content
        key — and therefore the in-memory entry *and* the persistent
        ``svd`` store token — carries the precision, and float32 factors can
        never be served where float64 ones are expected.  Backends of one
        precision share one entry.
        """
        backend = resolve_backend(backend)
        matrix = backend.asarray(matrix)
        key = matrix_fingerprint(matrix)
        with self._lock:
            cached = self._svds.get(key)
            if cached is not None:
                self.hits += 1
                self._svds.move_to_end(key)
                return cached
        if self._store is not None:
            arrays = self._store.get_arrays("svd", _store_token(key))
            if arrays is not None and {"u", "s", "vt"} <= set(arrays):
                factors = (arrays["u"], arrays["s"], arrays["vt"])
                with self._lock:
                    self.store_hits += 1
                    self._insert(key, factors)
                return factors
        u, s, vt = backend.svd(matrix)
        if self._store is not None:
            self._store.put_arrays("svd", _store_token(key), {"u": u, "s": s, "vt": vt})
        with self._lock:
            self.misses += 1
            self._insert(key, (u, s, vt))
        return u, s, vt

    def _insert(self, key: object, factors: Tuple[np.ndarray, np.ndarray, np.ndarray]) -> None:
        # Caller holds self._lock.
        self._svds[key] = factors
        self._svds.move_to_end(key)
        if self.maxsize is not None:
            while len(self._svds) > self.maxsize:
                self._svds.popitem(last=False)
                self.evictions += 1

    def decompose(
        self, matrix: np.ndarray, rank: int, backend: Union[str, Backend, None] = None
    ) -> LowRankFactors:
        """Memoized equivalent of :func:`repro.lowrank.decompose.decompose`.

        Truncating the cached thin SVD reproduces the direct computation
        exactly (``numpy.linalg.svd`` is deterministic for a given matrix), so
        sweeping ranks over the same matrix costs one SVD total.
        """
        if rank <= 0:
            raise ValueError(f"rank must be positive, got {rank}")
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        return truncate_svd(self.svd(matrix, backend=backend), rank)

    def group_decompose(
        self,
        matrix: np.ndarray,
        rank: int,
        groups: int,
        backend: Union[str, Backend, None] = None,
    ) -> GroupLowRankFactors:
        """Memoized equivalent of :func:`repro.lowrank.group.group_decompose`."""
        blocks = split_columns(matrix, groups)
        return GroupLowRankFactors(
            tuple(self.decompose(block, rank, backend=backend) for block in blocks)
        )

    def clear(self) -> None:
        with self._lock:
            self._svds.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.store_hits = 0

    def __len__(self) -> int:
        return len(self._svds)


#: Process-wide cache shared by the execution contexts.
default_decomposition_cache = DecompositionCache()


def cached_decompose(
    matrix: np.ndarray, rank: int, backend: Union[str, Backend, None] = None
) -> LowRankFactors:
    """Module-level convenience wrapper over the shared cache."""
    return default_decomposition_cache.decompose(matrix, rank, backend=backend)


def cached_group_decompose(
    matrix: np.ndarray, rank: int, groups: int, backend: Union[str, Backend, None] = None
) -> GroupLowRankFactors:
    """Module-level convenience wrapper over the shared cache."""
    return default_decomposition_cache.group_decompose(matrix, rank, groups, backend=backend)
