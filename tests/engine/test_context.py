"""Tests for the pipeline layer: ExecutionContext, LayerPlan, decomposition cache.

The per-family plan-vs-oracle battery lives in ``test_plan_oracle.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import active_backend
from repro.engine.cache import DecompositionCache, matrix_fingerprint
from repro.engine.context import ExecutionContext
from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.lowrank.decompose import decompose
from repro.lowrank.group import group_decompose
from repro.mapping.geometry import ArrayDims, ConvGeometry

HIGH_PRECISION = PeripheralSuite(cell=CellSpec(conductance_levels=4096))


class TestDecompositionCache:
    def test_cached_decompose_bit_identical_to_direct(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((24, 36))
        # The direct reference runs at the active compute precision (cast
        # first), so the bit-identity holds under every backend.
        reference = active_backend().asarray(matrix)
        for rank in (1, 4, 12, 24):
            cached = cache.decompose(matrix, rank)
            direct = decompose(reference, rank)
            np.testing.assert_array_equal(cached.left, direct.left)
            np.testing.assert_array_equal(cached.right, direct.right)

    def test_cached_group_decompose_bit_identical(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((16, 40))
        reference = active_backend().asarray(matrix)
        for rank, groups in ((2, 1), (4, 2), (8, 4)):
            cached = cache.group_decompose(matrix, rank, groups)
            direct = group_decompose(reference, rank, groups)
            np.testing.assert_array_equal(cached.reconstruct(), direct.reconstruct())

    def test_rank_sweep_costs_one_svd(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((20, 20))
        for rank in (1, 2, 5, 10, 20):
            cache.decompose(matrix, rank)
        assert cache.misses == 1
        assert cache.hits == 4

    def test_content_addressing_hits_equal_matrices(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((8, 8))
        cache.decompose(matrix.copy(), 2)
        cache.decompose(matrix.copy(), 2)
        assert cache.misses == 1 and cache.hits == 1

    def test_fingerprint_distinguishes_content_and_shape(self, rng):
        a = rng.standard_normal((4, 6))
        assert matrix_fingerprint(a) == matrix_fingerprint(a.copy())
        assert matrix_fingerprint(a) != matrix_fingerprint(a + 1e-12)
        assert matrix_fingerprint(a) != matrix_fingerprint(a.reshape(6, 4))

    def test_invalid_rank_rejected(self, rng):
        with pytest.raises(ValueError):
            DecompositionCache().decompose(rng.standard_normal((4, 4)), 0)

    def test_clear(self, rng):
        cache = DecompositionCache()
        cache.decompose(rng.standard_normal((4, 4)), 2)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestExecutionContext:
    def test_conv_plan_consumes_nchw_inputs(self, rng, small_array):
        geometry = ConvGeometry(2, 4, 3, 3, 6, 6, stride=1, padding=1)
        weight = rng.standard_normal((4, 2, 3, 3))
        inputs = rng.standard_normal((2, 2, 6, 6))
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        result = ctx.plan(weight, geometry).run(inputs).trial(0)
        assert result.outputs.shape == (2 * 36, 4)
        assert result.relative_error < 0.05

    def test_plan_reuse_across_batches(self, rng, small_array):
        """A plan programs tiles once; each run only executes (and counts) MVMs."""
        ctx = ExecutionContext(array=small_array, peripherals=HIGH_PRECISION)
        plan = ctx.plan(rng.standard_normal((16, 40)))
        first = plan.run(rng.standard_normal((3, 40)))
        second = plan.run(rng.standard_normal((2, 40)))
        assert first.activations == 3 * plan.allocated_tiles
        assert second.activations == 5 * plan.allocated_tiles  # cumulative counter

    def test_decompositions_shared_across_contexts(self, rng):
        """Sweeping array sizes reuses the same cached SVDs."""
        cache = DecompositionCache()
        matrix = rng.standard_normal((16, 40))
        for size in (32, 64, 128):
            ctx = ExecutionContext(array=ArrayDims.square(size), decompositions=cache)
            ctx.plan(matrix, rank=4, groups=2)
        assert cache.misses == 2  # one SVD per column block, shared by all sizes
        assert cache.hits == 4


def _nan_weight(rng):
    weight = rng.standard_normal((32, 48))
    weight[3, 4] = np.nan
    return weight


def _inf_input(rng):
    inputs = rng.standard_normal((4, 48))
    inputs[1, 2] = np.inf
    return inputs


#: case -> (context options, plan options, bad weight?, bad input?, message)
BAD_INPUTS = {
    "rank_exceeds_matrix": ({}, {"rank": 100}, False, False, "rank 100"),
    "rank_exceeds_group": ({}, {"rank": 20, "groups": 4}, False, False, "rank 20"),
    "groups_without_rank": ({}, {"groups": 2}, False, False, "groups=2 needs a rank"),
    "groups_zero": ({}, {"rank": 4, "groups": 0}, False, False, "groups must be positive, got 0"),
    "output_bits_zero": ({"output_bits": 0}, {}, False, False, "output_bits .* got 0"),
    "input_bits_zero": ({"input_bits": 0}, {}, False, False, "input_bits .* got 0"),
    "nan_weight": ({}, {}, True, False, "weights must be finite, got nan"),
    "nan_weight_lowrank": ({}, {"rank": 4}, True, False, "weights must be finite, got nan"),
    "inf_input": ({}, {}, False, True, "inputs must be finite, got inf"),
}


class TestBoundaryValidation:
    """Bad hardware settings, ranks, weights and inputs fail loudly at the plan."""

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_rejected_with_named_value(self, rng, small_array, case):
        ctx_options, plan_options, bad_weight, bad_input, message = BAD_INPUTS[case]
        ctx = ExecutionContext(array=small_array, **ctx_options)
        weight = _nan_weight(rng) if bad_weight else rng.standard_normal((32, 48))
        inputs = _inf_input(rng) if bad_input else rng.standard_normal((4, 48))
        with pytest.raises(ValueError, match=message):
            ctx.plan(weight, **plan_options).run(inputs)

    def test_rank_at_the_bound_is_accepted(self, rng, small_array):
        ctx = ExecutionContext(array=small_array)
        plan = ctx.plan(rng.standard_normal((32, 48)), rank=12, groups=4)
        assert plan.method == "lowrank(g=4,k=12)"
