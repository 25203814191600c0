"""Block-diagonal lowering of grouped/depthwise convolutions and stacked GEMMs.

A grouped convolution's im2col weight matrix is block-diagonal (see
:class:`repro.mapping.geometry.GroupedConvGeometry`): group ``g``'s
``block_out_rows × block_in_cols`` dense block sits at diagonal position
``g``, and everything else is a structural zero.  These helpers convert
between the three representations the engine and the tests use:

* the **kernel tensor** ``(out_channels, group_in_channels, kh, kw)`` —
  what a framework stores for a grouped conv,
* the **per-group block list** ``[ (block_out_rows, block_in_cols) ] * groups``
  — the keras-cv ``GroupConv2D`` view (slice input channels per group,
  convolve, concatenate outputs; SNIPPETS.md snippet 3),
* the **block-diagonal im2col matrix** ``(m, n)`` — what the tile layer
  programs.

Because :func:`repro.imc.tiles.iter_tile_blocks` never allocates an all-zero
tile, programming the block-diagonal matrix through the ordinary dense-plan
path places exactly the tiles :func:`tiles_for_grouped_conv` predicts in
closed form — block-diagonal tile placement with no bespoke executor, for the
engine's tile kernel and the per-tile oracle alike.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from .cycles import LayerCycles, tiles_for_block_diagonal
from .geometry import ArrayDims, GroupedConvGeometry
from .utilization import UtilizationReport

__all__ = [
    "group_slices",
    "expand_grouped_kernel",
    "grouped_weight_matrix",
    "extract_group_blocks",
    "stack_attention_weights",
    "tiles_for_grouped_conv",
    "grouped_im2col_cycles",
    "grouped_utilization",
]


def group_slices(geometry: GroupedConvGeometry) -> List[Tuple[slice, slice]]:
    """Per-group ``(output-row, input-column)`` slices in im2col orientation.

    Rows index output channels, columns index the channel-major-flattened
    ``in_channels · kh · kw`` input positions, so each group's inputs are a
    contiguous column range — the contiguity that makes the matrix
    block-diagonal rather than merely sparse.
    """
    rows, cols = geometry.block_out_rows, geometry.block_in_cols
    return [
        (slice(g * rows, (g + 1) * rows), slice(g * cols, (g + 1) * cols))
        for g in range(geometry.groups)
    ]


def expand_grouped_kernel(weight: np.ndarray, geometry: GroupedConvGeometry) -> np.ndarray:
    """Lower a grouped kernel tensor to its block-diagonal im2col matrix.

    ``weight`` has the framework layout ``(out_channels, group_in_channels,
    kh, kw)``; the result is the ``(m, n)`` matrix whose diagonal blocks are
    the per-group unrolled kernels and whose off-diagonal entries are exact
    zeros (structural — the tile layer never allocates them).
    """
    expected = (
        geometry.out_channels,
        geometry.group_in_channels,
        geometry.kernel_h,
        geometry.kernel_w,
    )
    if weight.shape != expected:
        raise ValueError(
            f"grouped kernel shape {weight.shape} does not match the geometry's "
            f"expected {expected}"
        )
    flat = weight.reshape(geometry.m, geometry.block_in_cols)
    matrix = np.zeros((geometry.m, geometry.n), dtype=flat.dtype)
    for rows, cols in group_slices(geometry):
        matrix[rows, cols] = flat[rows]
    return matrix


def grouped_weight_matrix(
    blocks: Sequence[np.ndarray], geometry: GroupedConvGeometry
) -> np.ndarray:
    """Assemble the block-diagonal ``(m, n)`` matrix from per-group blocks."""
    if len(blocks) != geometry.groups:
        raise ValueError(f"expected {geometry.groups} blocks, got {len(blocks)}")
    shape = (geometry.block_out_rows, geometry.block_in_cols)
    matrix = np.zeros((geometry.m, geometry.n), dtype=np.result_type(*blocks))
    for block, (rows, cols) in zip(blocks, group_slices(geometry)):
        if block.shape != shape:
            raise ValueError(f"group block shape {block.shape} != expected {shape}")
        matrix[rows, cols] = block
    return matrix


def extract_group_blocks(
    matrix: np.ndarray, geometry: GroupedConvGeometry
) -> List[np.ndarray]:
    """Slice the per-group diagonal blocks back out of a block-diagonal matrix.

    The inverse of :func:`grouped_weight_matrix` — the round trip is exact,
    which the hypothesis suite asserts for arbitrary grouped geometries.
    """
    if matrix.shape != (geometry.m, geometry.n):
        raise ValueError(
            f"matrix shape {matrix.shape} != geometry's ({geometry.m}, {geometry.n})"
        )
    return [matrix[rows, cols].copy() for rows, cols in group_slices(geometry)]


def stack_attention_weights(weights: Sequence[np.ndarray]) -> np.ndarray:
    """Stack per-projection ``(d_out, d_model)`` matrices into one fused GEMM.

    The Q/K/V projections share their input, so mapping them as one
    row-stacked ``(Σ d_out, d_model)`` matrix computes all three in the same
    tile activations — the standard fused-QKV trick, expressed as a plain
    dense mapping.
    """
    if not weights:
        raise ValueError("expected at least one projection matrix")
    widths = {w.shape[1] for w in weights if w.ndim == 2}
    if any(w.ndim != 2 for w in weights) or len(widths) != 1:
        raise ValueError(
            "projection matrices must be 2-D with one shared input width, got "
            f"shapes {[w.shape for w in weights]}"
        )
    return np.vstack(weights)


def tiles_for_grouped_conv(geometry: GroupedConvGeometry, array: ArrayDims) -> int:
    """Closed-form allocated-tile count of the block-diagonal placement.

    ``tiles_for_block_diagonal`` counts tiles intersecting at least one block;
    its ``block_rows`` axis is the input dimension (tiled by ``array.rows``)
    and ``block_cols`` the output dimension (tiled by ``array.logical_cols``),
    matching the tile layer's orientation.  Equals
    ``TiledMatrix(expand_grouped_kernel(...)).num_allocated_tiles`` exactly —
    asserted by the test-suite, never assumed.
    """
    return tiles_for_block_diagonal(
        geometry.groups, geometry.block_in_cols, geometry.block_out_rows, array
    )


def grouped_im2col_cycles(geometry: GroupedConvGeometry, array: ArrayDims) -> LayerCycles:
    """Computing cycles of the block-diagonal im2col mapping.

    Every allocated tile is activated once per sliding-window position, the
    same accounting as the dense im2col model — only the tile count shrinks
    to the tiles the diagonal blocks actually intersect.
    """
    tiles = tiles_for_grouped_conv(geometry, array)
    return LayerCycles(
        layer=geometry.name or f"grouped(g={geometry.groups})",
        method=f"grouped-im2col(g={geometry.groups})",
        cycles=tiles * geometry.num_windows,
        arrays=tiles,
        window_positions=geometry.num_windows,
        mapped_rows=geometry.n,
        mapped_cols=geometry.m,
        details=f"{geometry.groups} diagonal blocks "
        f"{geometry.block_out_rows}x{geometry.block_in_cols}",
    )


def grouped_utilization(geometry: GroupedConvGeometry, array: ArrayDims) -> UtilizationReport:
    """Cell utilization of the block-diagonal placement.

    ``used_cells`` counts the stored (block) weights; ``allocated_cells`` the
    full capacity of the tiles the blocks touch.  Depthwise layers map
    notoriously poorly here (1 × kh·kw blocks strung down the diagonal), which
    is precisely what the ``layer_families`` experiment quantifies.
    """
    tiles = tiles_for_grouped_conv(geometry, array)
    allocated = tiles * array.rows * array.logical_cols
    used = geometry.weight_count
    return UtilizationReport(
        method=f"grouped-im2col(g={geometry.groups})",
        used_cells=used,
        allocated_cells=allocated,
        row_utilization=min(1.0, geometry.n / (tiles * array.rows)),
        col_utilization=min(1.0, geometry.m / (tiles * array.logical_cols)),
    )
