"""Weight bit-slicing onto multi-column / multi-cell crossbar storage.

A ``b``-bit quantized weight rarely fits a single memory cell: with cells that
store ``c`` bits, each logical weight occupies ``ceil(b / c)`` physical
columns, and the analog column currents of the slices must be combined with a
shift-and-add after the ADCs.  :class:`repro.mapping.geometry.ArrayDims`
already accounts for the *capacity* side of this (``cols_per_weight`` /
``logical_cols``); this module implements the *functional* side so the
crossbar simulator and the quantization substrate line up exactly:

* :func:`slice_weights` — signed integer weight codes → per-slice cell codes,
* :func:`combine_slices` — per-slice MVM results → full-precision result,
* :class:`BitSlicedMatrix` — a mapped matrix whose slices are programmed as
  separate engine plans, executing the shift-add combination of Fig. 2-style
  column groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..mapping.geometry import ArrayDims, ceil_div
from .noise import NoiseModel
from .peripherals import PeripheralSuite, default_peripherals

__all__ = [
    "quantize_to_codes",
    "codes_to_values",
    "slice_weights",
    "combine_slices",
    "BitSlicedMatrix",
]


def quantize_to_codes(weights: np.ndarray, bits: int) -> Tuple[np.ndarray, float]:
    """Symmetric uniform quantization to signed integer codes.

    Returns ``(codes, scale)`` with ``codes`` in ``[-(2^(b-1) - 1), 2^(b-1) - 1]``
    and ``weights ≈ codes * scale``.
    """
    if bits < 2:
        raise ValueError(f"signed bit-slicing needs at least 2 bits, got {bits}")
    max_code = 2 ** (bits - 1) - 1
    max_abs = float(np.max(np.abs(weights))) if weights.size else 0.0
    if max_abs == 0.0:
        return np.zeros_like(weights, dtype=np.int64), 1.0
    scale = max_abs / max_code
    codes = np.clip(np.round(weights / scale), -max_code, max_code).astype(np.int64)
    return codes, scale


def codes_to_values(codes: np.ndarray, scale: float) -> np.ndarray:
    """Inverse of :func:`quantize_to_codes`."""
    return codes.astype(np.float64) * scale


def slice_weights(codes: np.ndarray, weight_bits: int, cell_bits: int) -> List[np.ndarray]:
    """Split signed integer codes into per-cell magnitude slices.

    The sign is kept on every slice (each slice is programmed onto the same
    differential column pair as its weight), and slice ``s`` holds the bits
    ``[s·cell_bits, (s+1)·cell_bits)`` of the magnitude, least significant
    slice first.  ``sum_s slice_s · 2^(s·cell_bits) == codes`` exactly.
    """
    if weight_bits <= 0 or cell_bits <= 0:
        raise ValueError("weight_bits and cell_bits must be positive")
    num_slices = ceil_div(weight_bits, cell_bits)
    magnitude = np.abs(codes).astype(np.int64)
    sign = np.sign(codes).astype(np.int64)
    slices: List[np.ndarray] = []
    remaining = magnitude.copy()
    base = 2 ** cell_bits
    for _ in range(num_slices):
        slices.append((remaining % base) * sign)
        remaining //= base
    if np.any(remaining != 0):
        raise ValueError(
            f"codes exceed the {weight_bits}-bit range and cannot be sliced into "
            f"{num_slices} x {cell_bits}-bit cells"
        )
    return slices


def combine_slices(partial_results: List[np.ndarray], cell_bits: int) -> np.ndarray:
    """Shift-and-add combination of per-slice MVM results (LSB slice first)."""
    if not partial_results:
        raise ValueError("no partial results to combine")
    total = np.zeros_like(partial_results[0], dtype=np.float64)
    for index, partial in enumerate(partial_results):
        total = total + partial * (2.0 ** (index * cell_bits))
    return total


@dataclass
class BitSlicedMatrix:
    """A logical weight matrix stored as bit slices across crossbar tiles.

    The matrix computes ``y = M x`` like :class:`repro.imc.tiles.TiledMatrix`,
    but each weight is first quantized to ``array.weight_bits`` and split into
    ``array.cols_per_weight`` slices of ``array.cell_bits`` bits, each slice
    programmed through its own engine plan; MVM results are combined by
    shift-add.
    """

    matrix: np.ndarray
    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {self.matrix.shape}")
        # Imported here: the engine builds on this package's crossbar/tile
        # primitives, so a module-level import would cycle.
        from ..engine.context import ExecutionContext
        from ..engine.kernels import STAGE_SEED_STRIDE

        codes, self._scale = quantize_to_codes(self.matrix, self.array.weight_bits)
        self._slices = slice_weights(codes, self.array.weight_bits, self.array.cell_bits)
        # Slices are spaced like plan stages: per-tile streams are seeded
        # seed + allocation_index, so consecutive integer offsets would
        # correlate slice s+1's tile 0 with slice s's tile 1.
        self._plans = [
            ExecutionContext(
                array=self.array,
                peripherals=self.peripherals,
                noise=self.noise,
                seed=self.seed + index * STAGE_SEED_STRIDE,
            ).plan(slice_codes.astype(np.float64))
            for index, slice_codes in enumerate(self._slices)
        ]

    @property
    def num_slices(self) -> int:
        return len(self._slices)

    @property
    def scale(self) -> float:
        """Multiplier converting combined integer results back to weight units."""
        return self._scale

    @property
    def num_allocated_tiles(self) -> int:
        return sum(plan.allocated_tiles for plan in self._plans)

    @property
    def total_activations(self) -> int:
        return sum(plan.activations for plan in self._plans)

    def quantized_matrix(self) -> np.ndarray:
        """The matrix as represented by the sliced integer codes (no analog noise)."""
        combined = combine_slices([s.astype(np.float64) for s in self._slices], self.array.cell_bits)
        return combined * self._scale

    def mvm(self, vector: np.ndarray) -> np.ndarray:
        """``y = M x`` via per-slice analog MVMs and digital shift-add."""
        partials = [plan.mvm_batch(vector[None, :])[0, 0] for plan in self._plans]
        return combine_slices(partials, self.array.cell_bits) * self._scale

    def mvm_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Batched ``Y = X M^T``: every slice executes its whole batch at once."""
        if vectors.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {vectors.shape}")
        partials = [plan.mvm_batch(vectors)[0] for plan in self._plans]
        return combine_slices(partials, self.array.cell_bits) * self._scale

    def activation_energy_pj(self) -> float:
        """Energy of one full MVM (every slice's tiles activate once)."""
        return sum(plan.activation_energy_pj() for plan in self._plans)
