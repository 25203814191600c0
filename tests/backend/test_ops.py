"""Operation-level tests of the execution backends.

The protocol surface (``matmul``, ``batched_matmul``, ``einsum``, ``svd``,
array alloc/cast) must agree with plain numpy at the policy's dtype, and the
threaded tile executor must be **bit-identical** to the ``numpy64``
reference on every batch shape the engine produces — including the
broadcast-trial 4-D Monte-Carlo case.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import (
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    ThreadedBackend,
    get_backend,
)


@pytest.fixture(params=["numpy64", "numpy32", "threaded"])
def backend(request):
    return get_backend(request.param)


class TestProtocolSurface:
    def test_policies(self):
        assert get_backend("numpy64").policy == FLOAT64_POLICY
        assert get_backend("threaded").policy == FLOAT64_POLICY
        assert get_backend("numpy32").policy == FLOAT32_POLICY
        assert get_backend("numpy32").policy.salt_token == "float32"
        assert get_backend("threaded").policy.salt_token == ""

    def test_asarray_casts_to_policy_dtype(self, backend, rng):
        values = rng.standard_normal((4, 5))
        cast = backend.asarray(values)
        assert cast.dtype == np.dtype(backend.policy.dtype)
        if backend.policy.dtype == "float64":
            assert cast is values  # no-copy fast path

    def test_alloc(self, backend):
        zeros = backend.zeros((3, 4))
        empty = backend.empty((2, 2))
        assert zeros.shape == (3, 4) and not zeros.any()
        assert zeros.dtype == empty.dtype == np.dtype(backend.policy.dtype)

    def test_matmul(self, backend, rng):
        a, b = rng.standard_normal((5, 7)), rng.standard_normal((7, 3))
        result = backend.matmul(a, b)
        reference = np.matmul(backend.asarray(a), backend.asarray(b))
        np.testing.assert_array_equal(result, reference)
        assert result.dtype == np.dtype(backend.policy.dtype)

    def test_einsum(self, backend, rng):
        a, b = rng.standard_normal((4, 6)), rng.standard_normal((6, 2))
        result = backend.einsum("ij,jk->ik", a, b)
        reference = np.einsum("ij,jk->ik", backend.asarray(a), backend.asarray(b))
        np.testing.assert_array_equal(result, reference)

    def test_svd(self, backend, rng):
        matrix = rng.standard_normal((8, 12))
        u, s, vt = backend.svd(matrix)
        ref = np.linalg.svd(backend.asarray(matrix), full_matrices=False)
        np.testing.assert_array_equal(u, ref[0])
        np.testing.assert_array_equal(s, ref[1])
        np.testing.assert_array_equal(vt, ref[2])
        assert u.dtype == np.dtype(backend.policy.dtype)

    def test_batched_matmul_matches_numpy(self, backend, rng):
        a = rng.standard_normal((6, 4, 5))
        b = rng.standard_normal((6, 5, 3))
        result = backend.batched_matmul(a, b)
        reference = np.matmul(backend.asarray(a), backend.asarray(b))
        np.testing.assert_array_equal(result, reference)


class TestThreadedBitIdentity:
    """The chunked tile executor must reproduce numpy.matmul bit-for-bit."""

    @pytest.mark.parametrize(
        "a_shape,b_shape",
        [
            ((7, 9, 5), (7, 5, 4)),          # plain stacked slices
            ((1, 6, 8, 5), (3, 6, 5, 4)),    # shared-input Monte-Carlo broadcast
            ((3, 6, 8, 5), (3, 6, 5, 4)),    # per-trial input stacks
            ((2, 1, 4, 3), (2, 5, 3, 2)),    # inner broadcast axis
            ((1, 9, 5), (7, 5, 4)),          # leading broadcast only
            ((4, 5), (5, 3)),                # plain 2-D falls through
            ((1, 3, 2), (1, 2, 2)),          # single slice
        ],
    )
    def test_bit_identical_to_stacked_matmul(self, rng, a_shape, b_shape):
        threaded = get_backend("threaded")
        a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
        np.testing.assert_array_equal(threaded.batched_matmul(a, b), np.matmul(a, b))

    def test_zero_size_batch(self, rng):
        threaded = get_backend("threaded")
        a, b = rng.standard_normal((0, 3, 2)), rng.standard_normal((0, 2, 4))
        assert threaded.batched_matmul(a, b).shape == (0, 3, 4)

    def test_many_slices_fan_out(self, rng):
        """More slices than chunks: every chunk boundary still lands exactly."""
        threaded = ThreadedBackend(max_workers=3, chunks_per_worker=2)
        a, b = rng.standard_normal((41, 6, 5)), rng.standard_normal((41, 5, 4))
        np.testing.assert_array_equal(threaded.batched_matmul(a, b), np.matmul(a, b))

    def test_single_worker_inline_path(self, rng):
        threaded = ThreadedBackend(max_workers=1)
        a, b = rng.standard_normal((5, 3, 2)), rng.standard_normal((5, 2, 3))
        np.testing.assert_array_equal(threaded.batched_matmul(a, b), np.matmul(a, b))

    def test_worker_exception_propagates(self):
        threaded = ThreadedBackend(max_workers=2)
        bad = np.ones((4, 3, 2))
        with pytest.raises(ValueError):
            threaded.batched_matmul(bad, np.ones((4, 5, 2)))  # inner dims mismatch

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ThreadedBackend(max_workers=0)

    def test_respects_threads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND_THREADS", "3")
        assert ThreadedBackend().max_workers == 3


class TestFusedTileExecutor:
    """The fused tiled_mvm override vs. the reference base implementation.

    A many-worker ThreadedBackend forces real chunk scheduling (several
    column-group chunks in flight) on matrices with partial edge tiles, with
    and without ADC quantization, and across Monte-Carlo trial stacks — the
    outputs must be bit-for-bit those of the numpy64 reference path.
    """

    @pytest.fixture
    def many_workers(self):
        return ThreadedBackend(max_workers=4, chunks_per_worker=2)

    @pytest.mark.parametrize("bits", [None, 6])
    @pytest.mark.parametrize("shape", [(40, 70), (33, 65), (100, 1), (64, 64)])
    def test_batched_kernel_bit_identical(self, rng, many_workers, shape, bits):
        from repro.engine.kernels import BatchedTiledMatrix
        from repro.imc.noise import NoiseModel
        from repro.mapping.geometry import ArrayDims

        matrix = rng.standard_normal(shape)
        array = ArrayDims.square(32)
        kwargs = dict(noise=NoiseModel.typical(), seed=7, input_bits=bits, output_bits=bits)
        reference = BatchedTiledMatrix(matrix, array, backend="numpy64", **kwargs)
        threaded = BatchedTiledMatrix(matrix, array, backend=many_workers, **kwargs)
        inputs = rng.standard_normal((9, shape[1]))
        np.testing.assert_array_equal(
            threaded.mvm_batch(inputs), reference.mvm_batch(inputs)
        )

    @pytest.mark.parametrize("bits", [None, 5])
    @pytest.mark.parametrize("per_trial_inputs", [False, True])
    def test_monte_carlo_kernel_bit_identical(self, rng, many_workers, bits, per_trial_inputs):
        from repro.engine.kernels import MonteCarloTiledMatrix
        from repro.imc.noise import NoiseModel
        from repro.mapping.geometry import ArrayDims

        matrix = rng.standard_normal((40, 70))
        array = ArrayDims.square(32)
        kwargs = dict(
            trials=3, noise=NoiseModel.typical(), seed=5, input_bits=bits, output_bits=bits
        )
        reference = MonteCarloTiledMatrix(matrix, array, backend="numpy64", **kwargs)
        threaded = MonteCarloTiledMatrix(matrix, array, backend=many_workers, **kwargs)
        inputs = (
            rng.standard_normal((3, 6, 70)) if per_trial_inputs else rng.standard_normal((6, 70))
        )
        np.testing.assert_array_equal(
            threaded.mvm_batch(inputs), reference.mvm_batch(inputs)
        )
