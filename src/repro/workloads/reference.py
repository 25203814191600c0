"""Deterministic reference weights for layers known only by their geometry.

The accuracy proxy, the rank allocator and the robustness trials all measure
low-rank error on Gaussian im2col matrices with a layer's shape.  The matrix
depends only on ``(seed, m, n)``, so layers of one shape share one matrix:
:func:`reference_matrix` generates each one lazily, once per process, and
hands out the same read-only array to every caller.  The memo is LRU-bounded
so a long-lived process sweeping many seeds does not grow without limit; the
default report needs ten specs.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..mapping.geometry import ConvGeometry

__all__ = ["reference_matrix", "effective_groups"]


@lru_cache(maxsize=64)
def reference_matrix(seed: int, m: int, n: int) -> np.ndarray:
    """Read-only Gaussian ``(m, n)`` weight matrix with ``1/sqrt(n)`` scale."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(m, n)))
    matrix = rng.normal(0.0, 1.0 / np.sqrt(n), size=(m, n))
    matrix.flags.writeable = False
    return matrix


def effective_groups(geometry: ConvGeometry, groups: int) -> int:
    """Largest group count ≤ requested that divides the layer's column count."""
    candidate = min(groups, geometry.in_channels)
    while geometry.n % candidate != 0:
        candidate -= 1
    return max(1, candidate)
