"""Vectorized execution engine: batched kernels, fused layer plans, sweep runner.

The engine is organized in three layers (see ENGINE.md at the repository
root):

* **kernel layer** (:mod:`repro.engine.kernels`) — stride-tricks im2col and
  the stacked-tensor :class:`MonteCarloTiledMatrix` crossbar kernel (a single
  programming is its ``trials=1`` case);
* **pipeline layer** (:mod:`repro.engine.context`) — :class:`ExecutionContext`
  and its one factory ``ctx.plan(weight, geometry, trials=, rank=, groups=)``,
  whose :class:`LayerPlan` fuses lower → decompose → map → simulate → energy
  with memoized decompositions (:mod:`repro.engine.cache`);
* **experiment layer** (:mod:`repro.engine.sweep`) — the registry-based sweep
  runner the Table I / Fig. 6–9 harnesses declare themselves against.
"""

from .cache import (
    DecompositionCache,
    cached_decompose,
    cached_group_decompose,
    default_decomposition_cache,
    matrix_fingerprint,
)
from .context import (
    ExecutionContext,
    LayerPlan,
    MonteCarloResult,
    SimulationResult,
)
from .kernels import (
    TRIAL_SEED_STRIDE,
    BatchedTiledMatrix,
    MonteCarloTiledMatrix,
    im2col_columns,
    im2col_columns_loop,
)
from .sweep import (
    ExperimentSpec,
    experiment_registry,
    map_sweep,
    register_experiment,
    run_experiments,
    to_jsonable,
)

__all__ = [
    "DecompositionCache",
    "cached_decompose",
    "cached_group_decompose",
    "default_decomposition_cache",
    "matrix_fingerprint",
    "ExecutionContext",
    "LayerPlan",
    "MonteCarloResult",
    "SimulationResult",
    "BatchedTiledMatrix",
    "MonteCarloTiledMatrix",
    "TRIAL_SEED_STRIDE",
    "im2col_columns",
    "im2col_columns_loop",
    "ExperimentSpec",
    "experiment_registry",
    "map_sweep",
    "register_experiment",
    "run_experiments",
    "to_jsonable",
]
