"""Benchmarks of the modern-layer mapping subsystem.

Times the block-diagonal grouped lowering + plan execution against the dense
mapping of the same im2col shape (the placement the block-diagonal path
avoids), and the registered ``layer_families`` experiment end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.context import ExecutionContext
from repro.experiments.layer_families import FAMILIES, run_layer_families
from repro.mapping.geometry import ArrayDims, GroupedConvGeometry
from repro.mapping.grouped import expand_grouped_kernel, tiles_for_grouped_conv

from .conftest import run_once

ARRAY = ArrayDims.square(64)
#: The grouped representative of the experiment (resnext20 layer2.1.gconv).
GEOMETRY = GroupedConvGeometry(128, 128, 3, 3, 16, 16, stride=1, padding=1,
                               name="bench.gconv", groups=8)


def _workload():
    rng = np.random.default_rng(7)
    kernel = rng.standard_normal(
        (GEOMETRY.out_channels, GEOMETRY.group_in_channels, 3, 3)
    )
    return kernel, rng.standard_normal((32, GEOMETRY.n))


@pytest.mark.benchmark(group="layer_families")
def test_bench_grouped_plan_block_diagonal(benchmark):
    kernel, inputs = _workload()
    ctx = ExecutionContext(array=ARRAY, seed=3)

    def grouped():
        return ctx.plan(kernel, GEOMETRY).run(inputs)

    result = benchmark(grouped)
    assert result.allocated_tiles == tiles_for_grouped_conv(GEOMETRY, ARRAY)


@pytest.mark.benchmark(group="layer_families")
def test_bench_dense_plan_same_shape(benchmark):
    """The dense placement of the same im2col matrix the lowering avoids."""
    kernel, inputs = _workload()
    # A dense matrix with no structural zeros: every bounding-box tile allocates.
    matrix = expand_grouped_kernel(kernel, GEOMETRY) + 1.0
    ctx = ExecutionContext(array=ARRAY, seed=3)

    def dense():
        return ctx.plan(matrix).run(inputs)

    result = run_once(benchmark, dense)
    assert result.allocated_tiles > tiles_for_grouped_conv(GEOMETRY, ARRAY)


@pytest.mark.benchmark(group="layer_families")
def test_bench_layer_families_experiment(benchmark):
    """The registered family sweep end to end (two scenarios, small trials)."""
    result = run_once(
        benchmark,
        run_layer_families,
        scenarios=("ideal", "typical_rram"),
        trials=4,
        batch=8,
    )
    assert len(result.points) == len(FAMILIES) * 2
