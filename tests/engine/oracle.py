"""The per-tile oracle side of the engine equivalence tests.

:class:`repro.imc.tiles.TiledMatrix` programs and executes one tile and one
vector at a time.  These helpers rebuild an engine kernel or a whole plan
from it — same stage matrices, hardware configuration and per-trial seeds —
so the oracle is wired up in exactly one place.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.engine.context import LayerPlan, SimulationResult
from repro.engine.kernels import MonteCarloTiledMatrix
from repro.imc.tiles import TiledMatrix


def oracle_tiles(kernel: MonteCarloTiledMatrix, trial: int = 0) -> TiledMatrix:
    """The per-tile programming of one trial of ``kernel``."""
    return TiledMatrix(
        matrix=kernel.matrix,
        array=kernel.array,
        peripherals=kernel.peripherals,
        noise=kernel.noise,
        input_bits=kernel.input_bits,
        output_bits=kernel.output_bits,
        skip_zero_tiles=kernel.skip_zero_tiles,
        seed=kernel.trial_seed(trial),
    )


def oracle_stages(plan: LayerPlan, trial: int = 0) -> List[TiledMatrix]:
    """Every stage of ``plan`` as trial ``trial`` programs it, per tile."""
    return [oracle_tiles(stage, trial) for stage in plan.stages]


def oracle_run(plan: LayerPlan, inputs: np.ndarray, trial: int = 0) -> SimulationResult:
    """Trial ``trial`` of ``plan.run(inputs)``, chained through the per-tile stages."""
    columns = plan.columns(inputs)
    stages = oracle_stages(plan, trial)
    outputs = columns
    for stage in stages:
        outputs = stage.mvm_batch(outputs)
    return SimulationResult(
        method=plan.method,
        outputs=outputs,
        exact=columns @ plan.exact_matrix.T,
        allocated_tiles=sum(stage.num_allocated_tiles for stage in stages),
        activations=sum(stage.total_activations for stage in stages),
        energy_pj=sum(stage.activation_energy_pj() for stage in stages) * columns.shape[0],
    )
