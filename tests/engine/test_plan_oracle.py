"""Every layer family's plan against the per-tile oracle and its sequential trials.

One battery over {dense, conv, low-rank g=1, low-rank g=2, grouped,
depthwise, attention} × trials {1, 3} asserts the engine contract of
ENGINE.md for each ``ctx.plan(...)``:

* every trial agrees with the per-tile :class:`~repro.imc.tiles.TiledMatrix`
  oracle chained with the plan's seeds — programmed conductances, tile
  counts, activations, energy and the exact reference bit-for-bit, analog
  outputs within the active precision policy's envelope;
* trial ``t`` of a multi-trial plan is bit-identical to
  ``ctx.trial_context(t).plan(...)``, the sequential single-trial run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.imc.noise import NoiseModel
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.mapping.geometry import (
    AttentionProjectionGeometry,
    ConvGeometry,
    GroupedConvGeometry,
)

from .oracle import oracle_run, oracle_stages
from .precision_helpers import assert_outputs_match

HIGH_PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=4096))

CONV = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1, name="conv")
GROUPED = GroupedConvGeometry(16, 16, 3, 3, 8, 8, stride=1, padding=1, name="g4", groups=4)
DEPTHWISE = GroupedConvGeometry(16, 16, 3, 3, 8, 8, stride=1, padding=1, name="dw", groups=16)
ATTENTION = AttentionProjectionGeometry.gemm(16, 16, 8, projections=3, name="qkv")


def _grouped_kernel(rng, geometry):
    return rng.standard_normal(
        (geometry.out_channels, geometry.group_in_channels, geometry.kernel_h, geometry.kernel_w)
    )


#: family -> rng -> (weight, geometry, low-rank options, inputs, expected method)
FAMILIES = {
    "dense": lambda rng: (
        rng.standard_normal((16, 40)), None, {}, rng.standard_normal((5, 40)), "dense"
    ),
    "conv": lambda rng: (
        rng.standard_normal((4, 2, 3, 3)),
        CONV,
        {},
        rng.standard_normal((2, 2, 6, 6)),  # NCHW feature maps, unfolded by the plan
        "dense",
    ),
    "lowrank_g1": lambda rng: (
        rng.standard_normal((16, 40)),
        None,
        {"rank": 4},
        rng.standard_normal((4, 40)),
        "lowrank(g=1,k=4)",
    ),
    "lowrank_g2": lambda rng: (
        rng.standard_normal((16, 40)),
        None,
        {"rank": 4, "groups": 2},
        rng.standard_normal((4, 40)),
        "lowrank(g=2,k=4)",
    ),
    "grouped": lambda rng: (
        _grouped_kernel(rng, GROUPED), GROUPED, {}, rng.standard_normal((5, GROUPED.n)), "grouped(g=4)"
    ),
    "depthwise": lambda rng: (
        _grouped_kernel(rng, DEPTHWISE),
        DEPTHWISE,
        {},
        rng.standard_normal((5, DEPTHWISE.n)),
        "depthwise",
    ),
    "attention": lambda rng: (
        [rng.standard_normal((16, 16)) for _ in range(3)],
        ATTENTION,
        {},
        rng.standard_normal((5, ATTENTION.n)),
        "attention(p=3)",
    ),
}


@pytest.fixture
def ctx(small_array):
    return ExecutionContext(
        array=small_array,
        peripherals=HIGH_PRECISION,
        noise=NoiseModel(conductance_sigma=0.05),
        seed=7,
    )


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestPlanBattery:
    def test_every_trial_matches_per_tile_oracle(self, rng, ctx, family, trials):
        weight, geometry, options, inputs, method = FAMILIES[family](rng)
        plan = ctx.plan(weight, geometry, trials=trials, **options)
        result = plan.run(inputs)
        assert result.method == method
        assert result.outputs.shape[0] == trials
        # The two-stage pipeline chains two reductions per output.
        slack = 10.0 if "rank" in options else 1.0
        for trial in range(trials):
            oracle = oracle_run(plan, inputs, trial)
            for stage, oracle_stage in zip(plan.stages, oracle_stages(plan, trial)):
                np.testing.assert_array_equal(
                    stage.stored_matrix(trial), oracle_stage.stored_matrix()
                )
            view = result.trial(trial)
            assert_outputs_match(view.outputs, oracle.outputs, slack=slack)
            np.testing.assert_array_equal(view.exact, oracle.exact)
            assert view.allocated_tiles == oracle.allocated_tiles
            assert view.activations == oracle.activations
            assert view.energy_pj == oracle.energy_pj
            assert view.method == oracle.method

    def test_trials_match_sequential_trial_contexts(self, rng, ctx, family, trials):
        weight, geometry, options, inputs, _ = FAMILIES[family](rng)
        plan = ctx.plan(weight, geometry, trials=trials, **options)
        result = plan.run(inputs)
        for trial in range(trials):
            sequential_plan = ctx.trial_context(trial).plan(weight, geometry, **options)
            sequential = sequential_plan.run(inputs)
            for stage, sequential_stage in zip(plan.stages, sequential_plan.stages):
                np.testing.assert_array_equal(
                    stage.stored_matrix(trial), sequential_stage.stored_matrix()
                )
            np.testing.assert_array_equal(result.outputs[trial], sequential.outputs[0])
            np.testing.assert_array_equal(result.exact, sequential.exact)
            assert result.energy_pj == sequential.energy_pj
            assert result.allocated_tiles == sequential.allocated_tiles
        np.testing.assert_array_equal(result.exact, plan.columns(inputs) @ plan.exact_matrix.T)
