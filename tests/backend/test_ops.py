"""Operation-level tests of the execution backends.

The execution surface (``matmul``, ``batched_matmul``, ``einsum``, ``svd``,
array alloc/cast) must agree with plain numpy at the policy's dtype.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import FLOAT32_POLICY, FLOAT64_POLICY, get_backend


@pytest.fixture(params=["numpy64", "numpy32"])
def backend(request):
    return get_backend(request.param)


class TestProtocolSurface:
    def test_policies(self):
        assert get_backend("numpy64").policy == FLOAT64_POLICY
        assert get_backend("numpy32").policy == FLOAT32_POLICY
        assert get_backend("numpy32").policy.salt_token == "float32"
        assert get_backend("numpy64").policy.salt_token == ""

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
