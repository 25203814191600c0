"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping.geometry import ArrayDims, ConvGeometry
from repro.nn.tensor import Tensor


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for each test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_geometry() -> ConvGeometry:
    """A small 3×3 convolution geometry used across mapping/lowrank tests."""
    return ConvGeometry(
        in_channels=4,
        out_channels=8,
        kernel_h=3,
        kernel_w=3,
        input_h=8,
        input_w=8,
        stride=1,
        padding=1,
        name="test-conv",
    )


@pytest.fixture
def small_array() -> ArrayDims:
    """A 32×32 crossbar (4-bit weights in 4-bit cells: one column per weight)."""
    return ArrayDims.square(32)


def numerical_gradient(func, values: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of a numpy array."""
    grad = np.zeros_like(values, dtype=np.float64)
    flat = values.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = func(values)
        flat[index] = original - epsilon
        minus = func(values)
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return grad


def check_gradient(build_output, values: np.ndarray, atol: float = 1e-5, rtol: float = 1e-4) -> None:
    """Compare autograd gradients against numerical differentiation.

    ``build_output`` maps a :class:`Tensor` (requiring grad) to a scalar Tensor.
    """
    tensor = Tensor(values.copy(), requires_grad=True)
    output = build_output(tensor)
    output.backward()
    analytic = tensor.grad

    def scalar(vals: np.ndarray) -> float:
        return float(build_output(Tensor(vals.copy())).data)

    numeric = numerical_gradient(scalar, values.copy())
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)
