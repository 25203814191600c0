"""``ctx.plan`` on the modern layer families: grouped, depthwise, attention.

Each family's plan must lower its weights as documented and allocate exactly
the tiles the closed-form block-diagonal count predicts.  Agreement with the
per-tile oracle and with sequential per-trial contexts is asserted for every
family by the battery in ``test_plan_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.engine.kernels import im2col_columns
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.mapping.geometry import AttentionProjectionGeometry, GroupedConvGeometry
from repro.mapping.grouped import expand_grouped_kernel, tiles_for_grouped_conv

HIGH_PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=4096))

GROUPED = GroupedConvGeometry(16, 16, 3, 3, 8, 8, stride=1, padding=1, name="g4", groups=4)
DEPTHWISE = GroupedConvGeometry(16, 16, 3, 3, 8, 8, stride=1, padding=1, name="dw", groups=16)
ATTENTION = AttentionProjectionGeometry.gemm(16, 16, 8, projections=3, name="qkv")


def _grouped_kernel(rng, geometry):
    return rng.standard_normal(
        (geometry.out_channels, geometry.group_in_channels, geometry.kernel_h, geometry.kernel_w)
    )


class TestGroupedPlans:
    @pytest.mark.parametrize("geometry", [GROUPED, DEPTHWISE], ids=["grouped", "depthwise"])
    def test_allocation_matches_closed_form(self, rng, small_array, geometry):
        ctx = ExecutionContext(array=small_array, seed=0)
        plan = ctx.plan(_grouped_kernel(rng, geometry), geometry)
        assert plan.allocated_tiles == tiles_for_grouped_conv(geometry, small_array)

    def test_method_names(self, rng, small_array):
        ctx = ExecutionContext(array=small_array)
        assert ctx.plan(_grouped_kernel(rng, GROUPED), GROUPED).method == "grouped(g=4)"
        assert ctx.plan(_grouped_kernel(rng, DEPTHWISE), DEPTHWISE).method == "depthwise"

    def test_exact_reference_is_block_diagonal(self, rng, small_array):
        kernel = _grouped_kernel(rng, GROUPED)
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        plan = ctx.plan(kernel, GROUPED)
        np.testing.assert_array_equal(
            plan.exact_matrix, expand_grouped_kernel(kernel, GROUPED)
        )

    def test_plan_consumes_nchw_inputs(self, rng, small_array):
        kernel = _grouped_kernel(rng, GROUPED)
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION, seed=2)
        plan = ctx.plan(kernel, GROUPED)
        feature_maps = rng.standard_normal((2, GROUPED.in_channels, 8, 8))
        from_maps = plan.run(feature_maps)
        from_columns = plan.run(im2col_columns(feature_maps, GROUPED))
        np.testing.assert_array_equal(from_maps.outputs, from_columns.outputs)

class TestAttentionPlans:
    def test_fused_matrix_equals_stacked_list(self, rng, small_array):
        weights = [rng.standard_normal((16, 16)) for _ in range(3)]
        fused = np.vstack(weights)
        inputs = rng.standard_normal((4, ATTENTION.n))
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION, seed=5)
        from_list = ctx.plan(weights, ATTENTION).run(inputs)
        from_fused = ctx.plan(fused, ATTENTION).run(inputs)
        np.testing.assert_array_equal(from_list.outputs, from_fused.outputs)
        np.testing.assert_array_equal(from_list.exact, from_fused.exact)

    def test_shape_validation(self, rng, small_array):
        ctx = ExecutionContext(array=small_array)
        with pytest.raises(ValueError):
            ctx.plan(rng.standard_normal((8, 16)), ATTENTION)
        with pytest.raises(ValueError):
            ctx.plan(rng.standard_normal((8, 16)), ATTENTION, trials=2)

    def test_method_names(self, rng, small_array):
        ctx = ExecutionContext(array=small_array)
        assert ctx.plan(
            rng.standard_normal((ATTENTION.m, ATTENTION.n)), ATTENTION
        ).method == "attention(p=3)"
        single = AttentionProjectionGeometry.gemm(16, 32, 8, name="proj")
        assert ctx.plan(
            rng.standard_normal((32, 16)), single
        ).method == "attention"
