"""Numba-compiled fused tile executor — an optional, extras-gated backend.

:class:`CompiledBackend` lowers the engine-facing :meth:`Backend.tiled_mvm`
composite — gather → per-tile MVM → rescale → ADC-quantize → allocation-order
scatter-add, the same pipeline :class:`repro.backend.threaded.ThreadedBackend`
fuses over a thread pool — into a single ``numba.njit(cache=True,
parallel=True)`` kernel over the engine's ``(trials, T, rows, cols)`` tile
stack.  The kernel parallelizes over the flattened ``(trial, vector)`` axis,
where every iteration owns a disjoint slice of the output.  ``batched_matmul`` /
``einsum`` / ``svd`` keep the numpy fallbacks of the :class:`Backend` base
class — JIT wins nothing on ops BLAS/LAPACK already saturate.

Numeric contract (the ``float64-fused`` policy).  The kernel runs float64
throughout and reproduces the reference pipeline stage for stage, but its
per-output dot products reduce **sequentially over the row axis**, not in
BLAS dgemm's blocked/SIMD order.  Reassociating a float64 reduction perturbs
the result by a few ULPs, so — exactly like ``numpy32``, only ~7 orders of
magnitude tighter — the backend ships a documented tolerance envelope
instead of the bit-identity contract, and salts its store fingerprints with
``"compiled"`` so warm artifacts never collide with the bit-identical
float64 family.  See :data:`COMPILED_POLICY` and ENGINE.md, "The compiled
(numba) backend".

Determinism (unchanged from the other backends): every parallel iteration
writes only ``result[trial, vector, :]``, tiles within one iteration
accumulate serially in allocation order, and nothing reads another
iteration's output — so results are independent of how numba schedules the
``prange``, and byte-identical across ``--workers`` counts.

Availability.  numba is an optional dependency (the ``repro[compiled]``
extra); this module imports it **lazily, on first kernel use**, never at
module scope, so the core package stays importable without it.  The registry
carries an availability probe (:func:`numba_unavailable_reason`) so listing
backends, resolving precedence and store-salt maintenance all work — and
produce an actionable "install the extra" error — on hosts without numba.
For testing the kernel itself without numba, ``REPRO_COMPILED_PUREPY=1`` (or
``CompiledBackend(force_python=True)``) runs the identical kernel function
uncompiled: same code object, same arithmetic, Python speed.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
import threading
from typing import Callable, Optional

import numpy as np

from .core import Backend, BackendUnavailableError, PrecisionPolicy, TileLayout

__all__ = [
    "COMPILED_POLICY",
    "COMPILED_EXTRA_HINT",
    "PUREPY_ENV_VAR",
    "CompiledBackend",
    "numba_unavailable_reason",
]

#: The pip command an unavailable `compiled` backend tells the user to run.
COMPILED_EXTRA_HINT = "pip install 'repro[compiled]'"

#: Set to any non-empty value to run the kernel uncompiled (pure Python).
#: A test seam for numba-less hosts, not a performance mode.
PUREPY_ENV_VAR = "REPRO_COMPILED_PUREPY"

#: The compiled backend's numeric contract.  float64 arithmetic through the
#: exact reference pipeline, but with sequentially-reduced dot products in
#: place of BLAS dgemm — a reassociation of the same float64 sum.  Observed
#: drift on the engine-equivalence workloads is a few ULPs (~1e-15 relative);
#: the envelopes below leave four orders of magnitude of headroom for longer
#: reductions and other BLAS builds while staying ~7 orders tighter than
#: float32.  ADC quantization rounds a ULP-perturbed ratio, so a tie can in
#: principle flip by one step — bounded by the same machinery that bounds
#: float32's flips, with a correspondingly microscopic slack.  The golden
#: suite's metric tolerances were sized to absorb BLAS-build variation
#: (error metrics at 1e-5 rtol), which dwarfs ULP reassociation; 2x keeps a
#: margin without weakening the suite.
COMPILED_POLICY = PrecisionPolicy(
    name="float64-fused",
    dtype="float64",
    bit_identical=False,
    salt_token="compiled",
    output_rtol=1e-11,
    output_atol=1e-13,
    associativity_rtol=1e-9,
    quantized_step_slack=1e-11,
    golden_scale=2.0,
)


def numba_unavailable_reason() -> Optional[str]:
    """``None`` when the compiled backend can run here, else why not.

    The registry's availability probe: checked before the factory runs, so
    an absent numba yields :class:`BackendUnavailableError` with the extras
    hint instead of an import crash.  Cheap by construction — a ``find_spec``
    (or a ``sys.modules`` hit), never an import.
    """
    if os.environ.get(PUREPY_ENV_VAR):
        return None  # pure-Python seam: the kernel runs uncompiled
    if "numba" in sys.modules:
        return None
    try:
        spec = importlib.util.find_spec("numba")
    except (ImportError, ValueError):  # broken/namespace-shadowed install
        spec = None
    if spec is None:
        return "the optional dependency 'numba' is not installed"
    return None


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------
#: Rebound to ``numba.prange`` immediately before JIT decoration; under the
#: pure-Python seam the kernel runs with the plain ``range`` binding.  The
#: rebinding must happen before ``njit`` reads the function's globals —
#: compiling with ``prange = range`` would silently serialize the kernel.
prange = range


def _tiled_mvm_loops(x, diff, tile_rows, out_starts, out_lens, scales, span, levels, result):
    """Fused tiled-MVM over a unified 4-D layout (njit-compatible subset).

    ``x``: ``(1 | trials, row_tiles, batch, rows)`` float64 C-contiguous —
    leading extent 1 means "inputs shared by every trial".
    ``diff``: ``(trials, T, rows, cols)``; a single programming has
    ``trials == 1``.  ``result``: ``(trials, batch, out_dim)`` zeros, written
    in place.  ``levels``: ADC quantization levels (``2**bits - 1``), 0 to
    skip quantization.

    Parallelism: one ``prange`` iteration per flattened ``(trial, vector)``
    pair; each iteration writes only ``result[trial, b, :]`` and reads only
    shared inputs, so scheduling cannot reorder any floating-point reduction.
    Within an iteration, tiles run in allocation order and their partial sums
    accumulate serially — the reference scatter-add order.

    ADC rounding is inlined (round-half-to-even, matching ``np.round``)
    because the engine's quantize callable cannot cross the JIT boundary.
    """
    trials = diff.shape[0]
    num_tiles = diff.shape[1]
    rows = diff.shape[2]
    batch = x.shape[2]
    cols = diff.shape[3]
    per_trial_inputs = x.shape[0] > 1
    for flat in prange(trials * batch):
        trial = flat // batch
        b = flat - trial * batch
        xt = trial if per_trial_inputs else 0
        buffer = np.empty(cols, dtype=np.float64)
        for t in range(num_tiles):
            row_tile = tile_rows[t]
            length = out_lens[t]
            scale = scales[t]
            # Per-tile MVM, rescaled current → weight units.  A sequential
            # row reduction: same float64 sum as dgemm, reassociated (the
            # reason this backend has a tolerance envelope, not bit-identity).
            for c in range(length):
                acc = 0.0
                for r in range(rows):
                    acc += x[xt, row_tile, b, r] * diff[trial, t, r, c]
                buffer[c] = acc / span * scale
            if levels > 0:
                # Per-(tile, vector) symmetric ADC quantization over the
                # programmed width — elementwise identical to the engine's
                # _quantize on this slice (zero max-abs passes through).
                max_abs = 0.0
                for c in range(length):
                    mag = abs(buffer[c])
                    if mag > max_abs:
                        max_abs = mag
                if max_abs > 0.0:
                    for c in range(length):
                        scaled = buffer[c] / max_abs * levels
                        # Inline round-half-to-even (np.round semantics);
                        # np.round itself is not reliably lowered on scalars.
                        lower = math.floor(scaled)
                        frac = scaled - lower
                        if frac > 0.5 or (frac == 0.5 and lower % 2.0 != 0.0):
                            lower += 1.0
                        buffer[c] = lower / levels * max_abs
            # Allocation-order accumulate into this iteration's output row.
            start = out_starts[t]
            for c in range(length):
                result[trial, b, start + c] += buffer[c]
    return result


_JIT_LOCK = threading.Lock()
_JIT_KERNEL: Optional[Callable] = None


def _jit_kernel() -> Callable:
    """The ``njit(cache=True, parallel=True)`` compilation of the kernel.

    Compiled once per process (the decoration; per-signature machine code is
    additionally cached on disk under ``NUMBA_CACHE_DIR`` by ``cache=True``,
    which CI persists across runs).  Raises :class:`BackendUnavailableError`
    with the extras hint when numba cannot be imported — callers never see a
    raw ImportError.
    """
    global _JIT_KERNEL, prange
    with _JIT_LOCK:
        if _JIT_KERNEL is None:
            try:
                import numba
            except Exception as exc:  # pragma: no cover - needs a broken install
                raise BackendUnavailableError(
                    "compiled", f"importing numba failed: {exc}", COMPILED_EXTRA_HINT
                ) from exc
            # Rebind the module global *before* decoration so the JIT sees
            # numba.prange and actually parallelizes the outer loop.
            prange = numba.prange
            _JIT_KERNEL = numba.njit(cache=True, parallel=True)(_tiled_mvm_loops)
        return _JIT_KERNEL


# ----------------------------------------------------------------------
# The backend
# ----------------------------------------------------------------------
class CompiledBackend(Backend):
    """float64 execution with the fused tile pipeline JIT-compiled by numba."""

    name = "compiled"
    policy = COMPILED_POLICY

    def __init__(self, force_python: Optional[bool] = None) -> None:
        if force_python is None:
            force_python = bool(os.environ.get(PUREPY_ENV_VAR))
        self.force_python = force_python
        self._kernel: Optional[Callable] = None
        self._kernel_lock = threading.Lock()

    def _resolved_kernel(self) -> Callable:
        with self._kernel_lock:
            if self._kernel is None:
                self._kernel = (
                    _tiled_mvm_loops if self.force_python else _jit_kernel()
                )
            return self._kernel

    def warmup(self) -> None:
        """Trigger the kernel's one JIT specialization on tiny inputs.

        The engine dispatches one 4-D signature, so a single quantized call
        compiles everything it will ever run.  Benchmarks call this before
        timing; the CI JIT-cache job calls it to populate/verify
        ``NUMBA_CACHE_DIR``.
        """
        layout = TileLayout(
            tile_rows=np.zeros(1, dtype=np.int64),
            out_starts=np.zeros(1, dtype=np.int64),
            out_lens=np.full(1, 2, dtype=np.int64),
            scales=np.ones(1, dtype=np.float64),
            span=1.0,
            out_dim=2,
        )
        x = np.ones((2, 1, 1, 3), dtype=np.float64)
        diff = np.ones((2, 1, 3, 2), dtype=np.float64)
        self.tiled_mvm(x, diff, layout, 4, lambda values, bits: values)

    def tiled_mvm(
        self,
        x: np.ndarray,
        diff: np.ndarray,
        layout: TileLayout,
        output_bits: Optional[int],
        quantize: Callable[[np.ndarray, int], np.ndarray],
    ) -> np.ndarray:
        """Execute the stacked-tile MVM through the fused JIT kernel.

        The ``quantize`` callable is **not invoked**: Python callables cannot
        cross the JIT boundary, so the kernel inlines the engine's per-(tile,
        vector) symmetric ADC quantization (the only quantizer the engine
        passes here) with round-half-to-even matching ``np.round``.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
        diff = np.ascontiguousarray(np.asarray(diff, dtype=np.float64))
        # Shared inputs become a leading trial extent of 1.
        x4 = x if x.ndim == 4 else x.reshape((1,) + x.shape)
        trials = diff.shape[0]
        batch = x4.shape[2]
        result = np.zeros((trials, batch, layout.out_dim), dtype=np.float64)
        if diff.shape[1] > 0 and batch > 0:
            kernel = self._resolved_kernel()
            kernel(
                x4,
                diff,
                np.ascontiguousarray(layout.tile_rows, dtype=np.int64),
                np.ascontiguousarray(layout.out_starts, dtype=np.int64),
                np.ascontiguousarray(layout.out_lens, dtype=np.int64),
                np.ascontiguousarray(layout.scales, dtype=np.float64),
                float(layout.span),
                0 if output_bits is None else 2 ** output_bits - 1,
                result,
            )
        return result
