"""Pipeline layer: fuse lower → decompose → map → simulate → energy per layer.

An :class:`ExecutionContext` captures the hardware configuration (array
dimensions, peripherals, noise model, DAC/ADC bit widths, seed) and the
execution backend.  Its one factory, :meth:`ExecutionContext.plan`, builds a
:class:`LayerPlan` **once** per mapped layer: the weight is lowered to its
im2col matrix according to the layer geometry, low-rank factors come from the
shared :class:`repro.engine.cache.DecompositionCache` (so sweeps over array
sizes and noise levels never re-decompose identical weights), the stage
matrices are programmed onto tiles ``trials`` times, and every subsequent
input batch reuses the programmed tiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..backend import Backend, resolve_backend
from ..imc.noise import NoiseModel
from ..imc.peripherals import PeripheralSuite, default_peripherals
from ..mapping.geometry import (
    ArrayDims,
    AttentionProjectionGeometry,
    ConvGeometry,
    GroupedConvGeometry,
)
from ..mapping.grouped import expand_grouped_kernel, stack_attention_weights
from .cache import DecompositionCache, default_decomposition_cache
from .kernels import (
    STAGE_SEED_STRIDE,
    TRIAL_SEED_STRIDE,
    MonteCarloTiledMatrix,
    _require_finite,
    im2col_columns,
)

__all__ = [
    "SimulationResult",
    "LayerPlan",
    "MonteCarloResult",
    "ExecutionContext",
]


@dataclass(frozen=True)
class SimulationResult:
    """One trial of a simulated layer (see :meth:`MonteCarloResult.trial`)."""

    method: str
    outputs: np.ndarray
    exact: np.ndarray
    allocated_tiles: int
    activations: int
    energy_pj: float

    @property
    def absolute_error(self) -> float:
        return float(np.max(np.abs(self.outputs - self.exact)))

    @property
    def relative_error(self) -> float:
        denom = float(np.linalg.norm(self.exact))
        if denom == 0.0:
            return 0.0
        return float(np.linalg.norm(self.outputs - self.exact)) / denom


@dataclass(frozen=True)
class MonteCarloResult:
    """Outcome of ``trials`` independently-noisy simulations of one layer.

    ``outputs`` stacks the per-trial analog results; ``exact`` is the shared
    noise-free software reference, so :attr:`relative_errors` measures the
    combined approximation + hardware error of every trial and the
    mean/std/worst statistics summarize the Monte-Carlo spread.
    ``energy_pj`` is the per-trial energy of executing the input batch (every
    trial programs the same tile allocation, so energy is trial-invariant).
    """

    method: str
    outputs: np.ndarray  # (trials, batch, out_dim)
    exact: np.ndarray  # (batch, out_dim)
    trials: int
    allocated_tiles: int
    activations: int
    energy_pj: float

    @property
    def relative_errors(self) -> np.ndarray:
        """Per-trial relative output error vs. the exact software result."""
        denom = float(np.linalg.norm(self.exact))
        if denom == 0.0:
            return np.zeros(self.trials)
        diffs = self.outputs - self.exact[None]
        return np.linalg.norm(diffs.reshape(self.trials, -1), axis=1) / denom

    @property
    def mean_relative_error(self) -> float:
        return float(np.mean(self.relative_errors))

    @property
    def std_relative_error(self) -> float:
        return float(np.std(self.relative_errors))

    @property
    def worst_relative_error(self) -> float:
        return float(np.max(self.relative_errors))

    def trial(self, trial: int) -> SimulationResult:
        """The result of one trial, as a sequential single-trial run reports it."""
        if not 0 <= trial < self.trials:
            raise IndexError(f"trial {trial} out of range [0, {self.trials})")
        return SimulationResult(
            method=self.method,
            outputs=self.outputs[trial],
            exact=self.exact,
            allocated_tiles=self.allocated_tiles,
            activations=self.activations // self.trials,
            energy_pj=self.energy_pj,
        )


@dataclass
class LayerPlan:
    """One mapped layer, programmed ``trials`` times and ready to execute batches.

    ``stages`` are executed in order (dense mapping has one stage, the
    two-stage low-rank computation has two) and share the trial axis, so
    trial ``t`` of stage 2 consumes trial ``t`` of stage 1, exactly as a
    sequential per-trial run would.  ``exact_matrix`` is the dense reference
    ``W`` used to report the combined approximation + hardware error;
    ``geometry`` (when present) lets the plan consume NCHW feature maps
    directly via the vectorized im2col kernel.
    """

    method: str
    stages: List[MonteCarloTiledMatrix]
    exact_matrix: np.ndarray
    trials: int = 1
    geometry: Optional[ConvGeometry] = None

    @property
    def allocated_tiles(self) -> int:
        """Tiles of ONE trial (all trials share the allocation layout)."""
        return sum(stage.num_allocated_tiles for stage in self.stages)

    @property
    def activations(self) -> int:
        return sum(stage.total_activations for stage in self.stages)

    def activation_energy_pj(self) -> float:
        """Energy of pushing one input vector through every stage, per trial."""
        return sum(stage.activation_energy_pj() for stage in self.stages)

    def columns(self, inputs: np.ndarray) -> np.ndarray:
        """Convert inputs to the (batch, n) column layout the tiles consume."""
        if inputs.ndim == 4:
            if self.geometry is None:
                raise ValueError("this plan has no ConvGeometry; pass 2-D column inputs")
            return im2col_columns(inputs, self.geometry)
        if inputs.ndim != 2:
            raise ValueError(f"expected a 2-D column batch or NCHW inputs, got shape {inputs.shape}")
        return inputs

    def mvm_batch(self, columns: np.ndarray) -> np.ndarray:
        """Chain a ``(batch, n)`` column batch through every stage: ``(trials, batch, m)``."""
        outputs = columns  # shared batch; becomes (trials, batch, ·) after stage 1
        for stage in self.stages:
            outputs = stage.mvm_batch(outputs)
        return outputs

    def run(self, inputs: np.ndarray) -> MonteCarloResult:
        """Execute every trial on a batch and report outputs, error spread and energy."""
        columns = self.columns(inputs)
        outputs = self.mvm_batch(columns)
        return MonteCarloResult(
            method=self.method,
            outputs=outputs,
            exact=columns @ self.exact_matrix.T,
            trials=self.trials,
            allocated_tiles=self.allocated_tiles,
            activations=self.activations,
            energy_pj=self.activation_energy_pj() * columns.shape[0],
        )


def _lower(
    weight: Union[np.ndarray, Sequence[np.ndarray]], geometry: Optional[ConvGeometry]
) -> Tuple[np.ndarray, str]:
    """The im2col matrix a layer maps onto tiles, and its dense method label."""
    if geometry is None:
        return weight, "dense"
    if isinstance(geometry, GroupedConvGeometry):
        # Block-diagonal placement: off-diagonal all-zero tiles are skipped,
        # so the allocation matches tiles_for_grouped_conv exactly.
        method = "depthwise" if geometry.is_depthwise else f"grouped(g={geometry.groups})"
        return expand_grouped_kernel(weight, geometry), method
    if isinstance(geometry, AttentionProjectionGeometry):
        # A fused (m, d_model) matrix, or per-projection (Q/K/V) matrices that
        # share their input and are row-stacked before mapping.
        if isinstance(weight, np.ndarray) and weight.ndim == 2:
            matrix = weight
        else:
            matrix = stack_attention_weights(list(weight))
        if matrix.shape != (geometry.m, geometry.n):
            raise ValueError(
                f"stacked projection shape {matrix.shape} != geometry's "
                f"({geometry.m}, {geometry.n})"
            )
        p = geometry.projections
        return matrix, "attention" if p == 1 else f"attention(p={p})"
    return weight.reshape(geometry.m, geometry.n), "dense"


@dataclass
class ExecutionContext:
    """Hardware configuration + execution backend + shared decomposition cache.

    ``backend`` picks the execution backend (:mod:`repro.backend`) the
    kernels and the decomposition cache compute through — ``None`` resolves
    to the active process default (``--backend`` / ``$REPRO_BACKEND`` /
    ``numpy64``).
    """

    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    seed: int = 0
    backend: Union[str, Backend, None] = None
    decompositions: DecompositionCache = field(
        default_factory=lambda: default_decomposition_cache
    )

    def __post_init__(self) -> None:
        self.backend = resolve_backend(self.backend)

    # ------------------------------------------------------------------
    # Persistent decomposition spill
    # ------------------------------------------------------------------
    def attach_store(self, store) -> "ExecutionContext":
        """Spill this context's SVDs through a persistent experiment store.

        Forwards to :meth:`DecompositionCache.attach_store` on the context's
        own cache (which may be the process-wide default or a private one).
        Worker processes of a parallel sweep attach the shared store so a
        decomposition computed by any worker is refilled — bit-identically —
        by every other, instead of being recomputed per process.  Returns the
        context for chaining.
        """
        self.decompositions.attach_store(store)
        return self

    def detach_store(self) -> "ExecutionContext":
        """Stop spilling this context's SVDs to a persistent store."""
        self.decompositions.detach_store()
        return self

    # ------------------------------------------------------------------
    # Plans
    # ------------------------------------------------------------------
    def trial_context(self, trial: int, trial_stride: int = TRIAL_SEED_STRIDE) -> "ExecutionContext":
        """The context a sequential run of Monte-Carlo trial ``trial`` uses.

        ``ctx.trial_context(t).plan(...)`` programs exactly the conductances
        of trial ``t`` of ``ctx.plan(..., trials=R)`` — the sequential oracle
        of the batched trial kernel.
        """
        return replace(self, seed=self.seed + trial * trial_stride)

    def plan(
        self,
        weight: Union[np.ndarray, Sequence[np.ndarray]],
        geometry: Optional[ConvGeometry] = None,
        *,
        trials: int = 1,
        rank: Optional[int] = None,
        groups: int = 1,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> LayerPlan:
        """Plan one layer: lower ``weight`` by ``geometry``, map it, program it.

        ``geometry`` selects the lowering: ``None`` maps ``weight`` as the
        dense matrix of ``y = W x``; a :class:`ConvGeometry` reshapes an
        ``(out, in, kh, kw)`` kernel to its im2col matrix; a
        :class:`GroupedConvGeometry` expands the grouped kernel to its
        block-diagonal matrix; an :class:`AttentionProjectionGeometry` stacks
        the projection matrices.  ``rank`` selects the grouped two-stage
        low-rank computation ``y = [L_1…L_g] diag(R_i) x`` of that matrix
        (memoized in the shared decomposition cache).  Every stage is
        programmed ``trials`` times with trial streams ``trial_stride`` apart;
        stage ``s`` is offset by ``s · STAGE_SEED_STRIDE``.
        """
        matrix, method = _lower(weight, geometry)
        if rank is None:
            if groups != 1:
                raise ValueError(f"groups={groups} needs a rank (the low-rank path)")
            matrices = [matrix]
        else:
            m, n = matrix.shape
            if groups < 1:
                raise ValueError(f"groups must be positive, got {groups}")
            limit = min(m, n // groups)
            if not 1 <= rank <= limit:
                raise ValueError(
                    f"rank {rank} does not fit a {m}x{n} matrix in {groups} group(s); "
                    f"expected 1 <= rank <= min(m, n // groups) = {limit}"
                )
            _require_finite("weights", matrix)  # before the SVD sees it
            factors = self.decompositions.group_decompose(
                matrix, rank, groups, backend=self.backend
            )
            matrices = [factors.block_diagonal_right(), factors.stacked_left()]
            method = f"lowrank(g={groups},k={rank})"
        # Stages are spaced by STAGE_SEED_STRIDE (not consecutive integers):
        # per-tile streams are seeded seed + allocation_index, so an offset of
        # 1 would alias stage 2's tile 0 with stage 1's tile 1.
        stages = [
            MonteCarloTiledMatrix(
                matrix=stage_matrix,
                array=self.array,
                trials=trials,
                peripherals=self.peripherals,
                noise=self.noise,
                input_bits=self.input_bits,
                output_bits=self.output_bits,
                seed=self.seed + index * STAGE_SEED_STRIDE,
                trial_stride=trial_stride,
                backend=self.backend,
            )
            for index, stage_matrix in enumerate(matrices)
        ]
        return LayerPlan(
            method=method,
            stages=stages,
            exact_matrix=matrix,
            trials=trials,
            geometry=geometry,
        )
