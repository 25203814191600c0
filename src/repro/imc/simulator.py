"""Functional crossbar simulation of mapped layers (with and without compression).

The simulator is a thin façade over the execution engine
(:mod:`repro.engine`): each ``run_*`` call builds a fused
:class:`repro.engine.context.LayerPlan` (lower → decompose → map → simulate →
energy) through :meth:`repro.engine.context.ExecutionContext.plan` and
executes it, so accuracy under hardware non-idealities (cell quantization,
conductance variation, stuck-at faults, IR drop) can be measured for:

* the dense im2col mapping,
* the traditional low-rank two-stage mapping,
* the proposed group low-rank (optionally SDK-mapped) two-stage mapping.

It also cross-checks the analytic AR/AC cycle model: the number of allocated
tiles of a simulated mapping must match the analytic ``tiles_for_matrix`` /
``tiles_for_block_diagonal`` counts, which the test-suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..engine.context import ExecutionContext, MonteCarloResult, SimulationResult
from ..engine.kernels import TRIAL_SEED_STRIDE, im2col_columns
from ..mapping.geometry import ArrayDims, ConvGeometry
from .noise import NoiseModel
from .peripherals import PeripheralSuite, default_peripherals

__all__ = ["SimulationResult", "MonteCarloResult", "IMCSimulator", "im2col_columns"]


@dataclass
class IMCSimulator:
    """Crossbar-level executor for dense and low-rank mapped layers.

    The single-programming ``run_*`` methods report trial 0 of a one-trial
    plan; the ``run_*_trials`` methods report every trial.  The exact
    reference of a low-rank run is the *dense* product ``W x``, so its error
    combines the intentional approximation error with the hardware error.
    """

    array: ArrayDims
    peripherals: PeripheralSuite = field(default_factory=default_peripherals)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    input_bits: Optional[int] = None
    output_bits: Optional[int] = None
    seed: int = 0

    def context(self) -> ExecutionContext:
        """The engine execution context this simulator drives."""
        return ExecutionContext(
            array=self.array,
            peripherals=self.peripherals,
            noise=self.noise,
            input_bits=self.input_bits,
            output_bits=self.output_bits,
            seed=self.seed,
        )

    def run_dense(self, weight_matrix: np.ndarray, inputs: np.ndarray) -> SimulationResult:
        """Simulate ``y = W x`` for every input row of ``inputs`` (shape (batch, n))."""
        return self.context().plan(weight_matrix).run(inputs).trial(0)

    def run_lowrank(
        self, weight_matrix: np.ndarray, inputs: np.ndarray, rank: int, groups: int = 1
    ) -> SimulationResult:
        """Simulate the grouped two-stage computation ``y = [L_1…L_g] diag(R_i) x``."""
        return self.context().plan(weight_matrix, rank=rank, groups=groups).run(inputs).trial(0)

    def run_dense_trials(
        self,
        weight_matrix: np.ndarray,
        inputs: np.ndarray,
        trials: int,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloResult:
        """``trials`` independently-noisy programmings of ``y = W x``, batched."""
        return self.context().plan(weight_matrix, trials=trials, trial_stride=trial_stride).run(inputs)

    def run_lowrank_trials(
        self,
        weight_matrix: np.ndarray,
        inputs: np.ndarray,
        trials: int,
        rank: int,
        groups: int = 1,
        trial_stride: int = TRIAL_SEED_STRIDE,
    ) -> MonteCarloResult:
        """Monte-Carlo trials of the grouped two-stage low-rank computation."""
        return self.context().plan(
            weight_matrix, trials=trials, rank=rank, groups=groups, trial_stride=trial_stride
        ).run(inputs)

    def run_conv_im2col(
        self, weight: np.ndarray, inputs: np.ndarray, geometry: ConvGeometry
    ) -> SimulationResult:
        """Simulate a full convolution on its im2col input columns."""
        return self.context().plan(weight, geometry).run(inputs).trial(0)

    def run_conv_lowrank(
        self,
        weight: np.ndarray,
        inputs: np.ndarray,
        geometry: ConvGeometry,
        rank: int,
        groups: int = 1,
    ) -> SimulationResult:
        """Simulate a convolution compressed with (group) low-rank factors."""
        return self.context().plan(weight, geometry, rank=rank, groups=groups).run(inputs).trial(0)
