"""Chunked, threaded tile executor — bit-identical to the numpy64 reference.

The reference execution path of :class:`repro.engine.kernels.MonteCarloTiledMatrix`
materializes three tensors the size of the full stacked-tile product per MVM
batch: the gathered per-tile input operand ``x[tile_rows]``, the batched
matmul output and its rescaled/quantized copy.  On the large-sweep workload
(hundreds of tiles × 1024-vector batches) those intermediates are tens of
megabytes each, so the hot path is memory-traffic bound — and the serial
gufunc loop of the stacked ``numpy.matmul`` leaves every other core idle.

:class:`ThreadedBackend` overrides :meth:`Backend.tiled_mvm` with a **fused
chunked tile executor**: the stacked-tile axis is partitioned into (trial,
output column group) pairs, and each chunk runs gather-view → 2-D GEMM →
rescale → ADC-quantize → accumulate with a cache-resident group-local buffer
on a shared :class:`~concurrent.futures.ThreadPoolExecutor`.  Nothing the size of the
full stacked product is ever materialized, and BLAS releases the GIL, so
chunks scale across cores; even with one worker the fused loop wins on
memory traffic (~2.5x on the committed large-sweep benchmark).

Determinism guarantee (the reason this backend keeps the ``numpy64``
fingerprint salt): every per-tile partial sum is produced by exactly the
same full-width GEMM reduction the stacked ``numpy.matmul`` performs for
that slice, the rescale/quantize steps are elementwise over the same
per-tile slices, and the only cross-tile floating-point reduction — the
scatter-add of the tiles sharing an output column range — happens serially,
in allocation order, inside a single chunk (tiles of different column groups
never touch the same output element, so chunk scheduling reorders nothing).
Results are therefore bit-for-bit identical to ``numpy64``, which
``tests/backend/test_ops.py``, the engine equivalence suites and the CI
backend-parity matrix all assert.

The generic :meth:`batched_matmul` protocol op is also overridden with a
batch-axis chunk scheduler (one direct 2-D GEMM per slice, no cross-slice
reduction) for callers outside the tile executor.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import FLOAT64_POLICY, THREADS_ENV_VAR, Backend, TileLayout

__all__ = ["ThreadedBackend"]


def _batch_index(
    array: np.ndarray, index: Tuple[int, ...], batch_ndim: int
) -> Tuple[int, ...]:
    """Map a broadcast batch index onto one operand's own batch axes.

    Batch axes align right (numpy broadcasting); axes the operand lacks are
    dropped and axes of extent 1 are pinned to 0.
    """
    own = array.ndim - 2
    offset = batch_ndim - own
    return tuple(
        0 if array.shape[axis] == 1 else index[axis + offset] for axis in range(own)
    )


class ThreadedBackend(Backend):
    """float64 execution with the stacked-tile axis fanned out over threads."""

    name = "threaded"
    policy = FLOAT64_POLICY

    def __init__(
        self,
        max_workers: Optional[int] = None,
        chunks_per_worker: int = 4,
    ) -> None:
        if max_workers is None:
            env = os.environ.get(THREADS_ENV_VAR, "")
            max_workers = int(env) if env else (os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers
        self.chunks_per_worker = chunks_per_worker
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-backend"
                )
            return self._pool

    # ------------------------------------------------------------------
    # The chunked tile executor
    # ------------------------------------------------------------------
    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = self.asarray(a)
        b = self.asarray(b)
        if a.ndim <= 2 and b.ndim <= 2:
            return np.matmul(a, b)
        batch_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        rows, inner, cols = a.shape[-2], a.shape[-1], b.shape[-1]
        if 0 in batch_shape or 0 in (rows, inner, cols):
            # Degenerate extents carry no work; keep numpy's edge-case handling.
            return np.matmul(a, b)
        out = np.empty(batch_shape + (rows, cols), dtype=np.result_type(a, b))
        indices: List[Tuple[int, ...]] = list(np.ndindex(*batch_shape))
        batch_ndim = len(batch_shape)

        def run_chunk(chunk: Sequence[Tuple[int, ...]]) -> None:
            # One direct 2-D GEMM per batch slice: the same reduction, over
            # the same operands, numpy.matmul performs for that slice.
            for index in chunk:
                np.matmul(
                    a[_batch_index(a, index, batch_ndim)],
                    b[_batch_index(b, index, batch_ndim)],
                    out=out[index],
                )

        self._fan_out(indices, run_chunk)
        return out

    def _fan_out(self, items: Sequence, run_chunk: Callable[[Sequence], None]) -> None:
        """Run ``run_chunk`` over contiguous slices of ``items`` on the pool.

        Inline (no pool) with one worker or fewer than two items; otherwise
        ~``chunks_per_worker`` chunks per worker, awaiting completion and
        re-raising the first worker exception.
        """
        if self.max_workers == 1 or len(items) < 2:
            run_chunk(items)
            return
        target = min(len(items), self.max_workers * self.chunks_per_worker)
        bounds = np.linspace(0, len(items), target + 1, dtype=int)
        pool = self._executor()
        futures = [
            pool.submit(run_chunk, items[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
            if stop > start
        ]
        done, _ = wait(futures)
        for future in done:
            future.result()  # re-raise worker exceptions

    # ------------------------------------------------------------------
    # The fused chunked tile executor
    # ------------------------------------------------------------------
    def tiled_mvm(
        self,
        x: np.ndarray,
        diff: np.ndarray,
        layout: TileLayout,
        output_bits: Optional[int],
        quantize: Callable[[np.ndarray, int], np.ndarray],
    ) -> np.ndarray:
        """Chunked, fused execution of the stacked-tile MVM.

        The reference path materializes three tensors the size of the full
        stacked product — the gathered per-tile input operand, the batched
        matmul output and its rescaled copy — before scatter-adding.  This
        override partitions the stacked-tile axis into **(trial, output
        column group)** chunks (a column group is the tiles sharing one
        output scatter range) and processes each chunk fused: per tile, one
        direct 2-D GEMM into a group-local buffer, rescale, ADC-quantize,
        accumulate.  Input segments are read as views
        of the row-sliced stack (nothing is gathered), and the working set of
        a group stays cache-resident.

        Bit-identity argument: every GEMM is the same full-width per-slice
        product the reference's batched matmul performs; rescaling and ADC
        quantization are elementwise over exactly the reference's per-tile
        slices; and because allocation order enumerates tiles row-major, the
        tiles of one column group form an allocation-order subsequence —
        accumulating them serially inside their group reproduces the
        reference's scatter-add order for every output element (partial sums
        of *different* column groups never touch the same output columns).
        Groups are disjoint in (trial, output range), so scheduling them
        across the thread pool reorders nothing.
        """
        x = self.asarray(x)
        diff = self.asarray(diff)
        trials, num_tiles, _, cols = diff.shape
        batch = x.shape[-2]
        result = self.zeros((trials, batch, layout.out_dim))
        if num_tiles == 0 or batch == 0:
            return result
        shared_inputs = x.ndim == 3
        # Column groups in allocation order: tiles sharing one output range.
        groups: "OrderedDict[int, List[int]]" = OrderedDict()
        for t in range(num_tiles):
            groups.setdefault(int(layout.out_starts[t]), []).append(t)
        chunks = [
            (trial, tiles)
            for trial in range(trials)
            for tiles in groups.values()
        ]

        def run_chunks(selected: Sequence[Tuple[int, List[int]]]) -> None:
            buffer = np.empty((batch, cols), dtype=result.dtype)
            for trial, tiles in selected:
                for t in tiles:
                    x_tile = (
                        x[layout.tile_rows[t]]
                        if shared_inputs
                        else x[trial, layout.tile_rows[t]]
                    )
                    d_tile = diff[trial, t]
                    # Full-width GEMM (never a column-sliced one): identical
                    # to the batched matmul's per-slice reduction.
                    np.matmul(x_tile, d_tile, out=buffer)
                    length = int(layout.out_lens[t])
                    partial = buffer[:, :length]
                    partial /= layout.span
                    partial *= layout.scales[t]
                    if output_bits is not None:
                        partial = quantize(partial, output_bits)
                    start = int(layout.out_starts[t])
                    result[trial, :, start : start + length] += partial

        self._fan_out(chunks, run_chunks)
        return result
