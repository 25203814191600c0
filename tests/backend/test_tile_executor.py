"""The tile kernel under each backend, pinned explicitly, against the oracle.

The engine equivalence suites (``tests/engine``) run under whichever backend
``$REPRO_BACKEND`` names, so a plain test run exercises only ``numpy64``.
This module names both backends in every case: the batched and Monte-Carlo
kernels, executed through ``numpy64`` and ``numpy32``, must reproduce the
per-tile :class:`repro.imc.tiles.TiledMatrix` oracle within that backend's
own precision envelope, on every batch shape the engine produces.
Programming is float64 under every backend, so read-back, tile counts and
energies are bit-identical across the two.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import FLOAT32_POLICY, Backend, get_backend, using_backend
from repro.engine.kernels import BatchedTiledMatrix, MonteCarloTiledMatrix
from repro.imc.noise import NoiseModel
from repro.lowrank.group import group_decompose

from ..engine.oracle import oracle_tiles
from ..engine.precision_helpers import assert_outputs_match, assert_quantized_outputs_match

BACKENDS = ("numpy64", "numpy32")

NOISE_MODELS = {
    "ideal": NoiseModel.ideal(),
    "typical": NoiseModel.typical(),
    "harsh": NoiseModel(conductance_sigma=0.3, stuck_at_rate=0.01, ir_drop_severity=0.1),
}

# Partial edge tiles on both axes, a single column, a single row and an
# exact 2×2 grid of the 32×32 test array.
SHAPES = [(40, 70), (33, 65), (100, 1), (1, 100), (64, 64)]

# Shapes with enough outputs per batch for the quantized-path statistic
# (≥ 99 % of entries at working precision) to be meaningful.
QUANTIZED_SHAPES = [(40, 70), (33, 65), (64, 64)]


def _outputs_match(backend, actual, reference):
    with using_backend(backend):  # the helper reads the active policy
        assert_outputs_match(actual, reference)


def _quantized_outputs_match(backend, actual, reference, output_bits):
    with using_backend(backend):
        assert_quantized_outputs_match(actual, reference, output_bits=output_bits)


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchedKernel:
    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_oracle(self, rng, small_array, backend, noise_name, shape):
        kernel = BatchedTiledMatrix(
            rng.standard_normal(shape), small_array,
            noise=NOISE_MODELS[noise_name], seed=7, backend=backend,
        )
        inputs = rng.standard_normal((9, shape[1]))
        _outputs_match(backend, kernel.mvm_batch(inputs), oracle_tiles(kernel).mvm_batch(inputs))

    @pytest.mark.parametrize("shape", QUANTIZED_SHAPES)
    def test_quantized_matches_oracle(self, rng, small_array, backend, shape):
        kernel = BatchedTiledMatrix(
            rng.standard_normal(shape), small_array, noise=NoiseModel.typical(),
            seed=7, input_bits=6, output_bits=6, backend=backend,
        )
        inputs = rng.standard_normal((9, shape[1]))
        _quantized_outputs_match(
            backend, kernel.mvm_batch(inputs), oracle_tiles(kernel).mvm_batch(inputs), 6
        )

    def test_output_dtype_follows_the_policy(self, rng, small_array, backend):
        kernel = BatchedTiledMatrix(rng.standard_normal((40, 70)), small_array, backend=backend)
        out = kernel.mvm_batch(rng.standard_normal((3, 70)))
        assert out.dtype == np.dtype(get_backend(backend).policy.dtype)

    @pytest.mark.parametrize("output_bits", [None, 6])
    def test_zero_inputs_give_zero_outputs(self, rng, small_array, backend, output_bits):
        """All-zero vectors pass the quantizer's zero-max branch untouched."""
        kernel = BatchedTiledMatrix(
            rng.standard_normal((40, 70)), small_array, noise=NoiseModel.typical(),
            seed=3, output_bits=output_bits, backend=backend,
        )
        out = kernel.mvm_batch(np.zeros((4, 70)))
        assert out.shape == (4, 40)
        assert not out.any()

    def test_deterministic_across_calls(self, rng, small_array, backend):
        kernel = BatchedTiledMatrix(
            rng.standard_normal((33, 65)), small_array, noise=NoiseModel.typical(),
            seed=11, output_bits=6, backend=backend,
        )
        inputs = rng.standard_normal((5, 65))
        np.testing.assert_array_equal(kernel.mvm_batch(inputs), kernel.mvm_batch(inputs))

    def test_empty_batch(self, rng, small_array, backend):
        kernel = BatchedTiledMatrix(
            rng.standard_normal((40, 70)), small_array, output_bits=6, backend=backend
        )
        assert kernel.mvm_batch(np.zeros((0, 70))).shape == (0, 40)

    def test_block_diagonal_zero_tiles_skipped(self, rng, small_array, backend):
        factors = group_decompose(rng.standard_normal((64, 64)), rank=32, groups=2)
        kernel = BatchedTiledMatrix(factors.block_diagonal_right(), small_array, backend=backend)
        oracle = oracle_tiles(kernel)
        assert kernel.num_allocated_tiles == oracle.num_allocated_tiles == 2
        inputs = rng.standard_normal((3, 64))
        _outputs_match(backend, kernel.mvm_batch(inputs), oracle.mvm_batch(inputs))

    def test_accounting_matches_oracle(self, rng, small_array, backend):
        kernel = BatchedTiledMatrix(
            rng.standard_normal((40, 70)), small_array, noise=NoiseModel.typical(),
            seed=3, backend=backend,
        )
        oracle = oracle_tiles(kernel)
        inputs = rng.standard_normal((4, 70))
        kernel.mvm_batch(inputs)
        oracle.mvm_batch(inputs)
        assert kernel.total_activations == oracle.total_activations
        assert kernel.activation_energy_pj() == oracle.activation_energy_pj()


@pytest.mark.parametrize("backend", BACKENDS)
class TestMonteCarloKernel:
    @pytest.mark.parametrize("bits", [None, 5])
    @pytest.mark.parametrize("per_trial_inputs", [False, True])
    def test_every_trial_matches_its_oracle(
        self, rng, small_array, backend, bits, per_trial_inputs
    ):
        kernel = MonteCarloTiledMatrix(
            rng.standard_normal((40, 70)), small_array, trials=3,
            noise=NoiseModel.typical(), seed=5, input_bits=bits, output_bits=bits,
            backend=backend,
        )
        inputs = (
            rng.standard_normal((3, 6, 70)) if per_trial_inputs else rng.standard_normal((6, 70))
        )
        out = kernel.mvm_batch(inputs)
        assert out.shape == (3, 6, 40)
        for trial in range(3):
            trial_inputs = inputs[trial] if per_trial_inputs else inputs
            expected = oracle_tiles(kernel, trial).mvm_batch(trial_inputs)
            if bits is None:
                _outputs_match(backend, out[trial], expected)
            else:
                _quantized_outputs_match(backend, out[trial], expected, bits)

    def test_zero_inputs_give_zero_outputs(self, rng, small_array, backend):
        kernel = MonteCarloTiledMatrix(
            rng.standard_normal((40, 70)), small_array, trials=2,
            noise=NoiseModel.typical(), seed=3, output_bits=6, backend=backend,
        )
        out = kernel.mvm_batch(np.zeros((4, 70)))
        assert out.shape == (2, 4, 40)
        assert not out.any()

    def test_empty_batch(self, rng, small_array, backend):
        kernel = MonteCarloTiledMatrix(
            rng.standard_normal((40, 70)), small_array, trials=2, backend=backend
        )
        assert kernel.mvm_batch(np.zeros((0, 70))).shape == (2, 0, 40)

    def test_output_dtype_follows_the_policy(self, rng, small_array, backend):
        kernel = MonteCarloTiledMatrix(
            rng.standard_normal((40, 70)), small_array, trials=2, backend=backend
        )
        out = kernel.mvm_batch(rng.standard_normal((2, 3, 70)))
        assert out.dtype == np.dtype(get_backend(backend).policy.dtype)


class TestProgrammingIsBackendIndependent:
    """Programming stays float64: the precision policy governs execution only."""

    @pytest.mark.parametrize("noise_name", sorted(NOISE_MODELS))
    def test_stored_matrix_identical(self, rng, small_array, noise_name):
        matrix = rng.standard_normal((40, 70))
        kernels = [
            BatchedTiledMatrix(
                matrix, small_array, noise=NOISE_MODELS[noise_name], seed=9, backend=name
            )
            for name in BACKENDS
        ]
        reference = oracle_tiles(kernels[0]).stored_matrix()
        for kernel in kernels:
            np.testing.assert_array_equal(kernel.stored_matrix(), reference)

    def test_stored_matrices_identical_across_trials(self, rng, small_array):
        matrix = rng.standard_normal((40, 70))
        wide, narrow = (
            MonteCarloTiledMatrix(
                matrix, small_array, trials=3, noise=NoiseModel.typical(), seed=4, backend=name
            )
            for name in BACKENDS
        )
        np.testing.assert_array_equal(wide.stored_matrices(), narrow.stored_matrices())

    def test_energy_identical(self, rng, small_array):
        matrix = rng.standard_normal((33, 65))
        energies = {
            BatchedTiledMatrix(matrix, small_array, backend=name).activation_energy_pj()
            for name in BACKENDS
        }
        assert len(energies) == 1

    def test_kernel_accepts_a_backend_instance(self, rng, small_array):
        """A Backend outside the name table executes at its own policy."""
        custom = Backend("custom32", FLOAT32_POLICY)
        kernel = BatchedTiledMatrix(rng.standard_normal((40, 70)), small_array, backend=custom)
        assert kernel.backend is custom
        inputs = rng.standard_normal((4, 70))
        out = kernel.mvm_batch(inputs)
        assert out.dtype == np.float32
        _outputs_match(custom, out, oracle_tiles(kernel).mvm_batch(inputs))


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchedMatmulShapes:
    """``batched_matmul`` is numpy's stacked matmul at the policy dtype, bit for bit."""

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((7, 9, 5), (7, 5, 4)),          # plain stacked slices
            ((1, 6, 8, 5), (3, 6, 5, 4)),    # shared-input Monte-Carlo broadcast
            ((3, 6, 8, 5), (3, 6, 5, 4)),    # per-trial input stacks
            ((2, 1, 4, 3), (2, 5, 3, 2)),    # inner broadcast axis
            ((1, 9, 5), (7, 5, 4)),          # leading broadcast only
            ((4, 5), (5, 3)),                # plain 2-D
            ((1, 3, 2), (1, 2, 2)),          # single slice
        ],
    )
    def test_bit_identical_to_numpy(self, rng, backend, a_shape, b_shape):
        impl = get_backend(backend)
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        result = impl.batched_matmul(a, b)
        np.testing.assert_array_equal(result, np.matmul(impl.asarray(a), impl.asarray(b)))
        assert result.dtype == np.dtype(impl.policy.dtype)

    def test_zero_size_batch(self, rng, backend):
        a, b = rng.standard_normal((0, 3, 2)), rng.standard_normal((0, 2, 4))
        assert get_backend(backend).batched_matmul(a, b).shape == (0, 3, 4)

    def test_inner_dimension_mismatch_raises(self, backend):
        with pytest.raises(ValueError):
            get_backend(backend).batched_matmul(np.ones((4, 3, 2)), np.ones((4, 5, 2)))
