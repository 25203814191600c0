"""Accuracy proxy for paper-scale compression sweeps.

Training thirty-plus ResNet-20 / WRN16-4 configurations to convergence (the
paper uses 250 QAT epochs per configuration on GPUs) is not feasible in the
pure-numpy substrate, so the paper-scale experiment harnesses use a calibrated
*accuracy proxy* while the end-to-end examples and tests train real (scaled
down) models to prove the pipeline.

How the proxy works
-------------------
1. For a (group, rank) configuration it computes the *actual* mean relative
   group low-rank reconstruction error over the network's compressible layers,
   using deterministic reference weight matrices with the correct per-layer
   shapes.  Theorem 1 guarantees this error shrinks as the group count grows,
   so the proxy responds to the compression configuration through the same
   mechanism the real networks do.
2. The error is mapped to an accuracy through a monotone interpolation whose
   anchor points are the accuracies the paper reports (Table I) for the same
   sixteen (group, rank-divisor) configurations.
3. Pattern pruning, PAIRS and quantization accuracies come from calibrated
   anchor tables matching the bands visible in Figs. 6 and 8.

The anchor tables below record the paper-reported values next to every
reproduced one; the proxy preserves orderings and approximate gaps, not exact
numbers.  ``python -m repro report --json report.json`` emits the
reproduced values machine-readably for side-by-side comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..backend import active_precision, resolve_backend
from ..engine.cache import truncate_svd
from ..lowrank.group import GroupLowRankFactors, group_relative_error, split_columns
from ..workloads import compressible_geometries, effective_groups, reference_matrix

__all__ = ["AccuracyProxy", "BASELINE_ACCURACY", "TABLE1_ACCURACY", "PATTERN_ACCURACY", "QUANTIZATION_ACCURACY"]


#: Uncompressed 4-bit QAT baseline accuracies (the orange dotted lines of Fig. 6).
BASELINE_ACCURACY: Dict[str, float] = {
    "resnet20": 91.6,
    "wrn16_4": 71.3,
}

#: Paper-reported accuracies (%) of the proposed method for every Table I
#: configuration, keyed by (groups, rank_divisor).  These are the calibration
#: anchors of the proxy.
TABLE1_ACCURACY: Dict[str, Dict[Tuple[int, int], float]] = {
    "resnet20": {
        (1, 2): 90.5, (1, 4): 88.7, (1, 8): 84.7, (1, 16): 77.6,
        (2, 2): 90.9, (2, 4): 89.5, (2, 8): 87.5, (2, 16): 83.6,
        (4, 2): 91.0, (4, 4): 90.2, (4, 8): 90.1, (4, 16): 86.0,
        (8, 2): 91.0, (8, 4): 90.9, (8, 8): 89.7, (8, 16): 88.1,
    },
    "wrn16_4": {
        (1, 2): 69.8, (1, 4): 66.1, (1, 8): 61.3, (1, 16): 45.1,
        (2, 2): 71.3, (2, 4): 70.2, (2, 8): 64.9, (2, 16): 58.3,
        (4, 2): 71.3, (4, 4): 70.1, (4, 8): 68.2, (4, 16): 63.8,
        (8, 2): 70.4, (8, 4): 71.7, (8, 8): 69.5, (8, 16): 65.8,
    },
}

#: Pattern-pruning (PatDNN-style) accuracy versus kept entries, calibrated to
#: the bands of Fig. 6: near-baseline at 7–8 entries, collapsing towards low
#: entry counts (much faster for WRN16-4, which is what produces the paper's
#: +20.9 % headline gap).
PATTERN_ACCURACY: Dict[str, Dict[int, float]] = {
    "resnet20": {8: 91.4, 7: 91.1, 6: 90.4, 5: 89.3, 4: 87.8, 3: 85.0, 2: 80.5, 1: 72.5},
    "wrn16_4": {8: 70.9, 7: 70.1, 6: 68.4, 5: 65.8, 4: 61.2, 3: 55.0, 2: 47.5, 1: 40.5},
}

#: PAIRS performs slightly better than plain pattern pruning at equal entries
#: because its patterns are co-designed with the SDK mapping.
PAIRS_ACCURACY_BONUS = 0.3

#: DoReFa quantized model accuracies versus bit width (Fig. 8 comparison).
QUANTIZATION_ACCURACY: Dict[str, Dict[int, float]] = {
    "resnet20": {4: 91.3, 3: 90.7, 2: 88.9, 1: 82.8},
    "wrn16_4": {4: 71.0, 3: 70.2, 2: 67.5, 1: 58.0},
}


#: Module-level memos shared by every proxy instance, keyed by the spec that
#: generates the data rather than by its bytes: a reference matrix depends
#: only on ``(seed, m, n)`` (:func:`repro.workloads.reference_matrix`), so
#: layers of one shape share their per-rank errors, and no matrix is
#: generated until an error is first needed.  Only the errors are kept: the
#: block SVDs behind them are dropped once the errors of every rank a
#: report asks for are derived.  Keys lead with the active execution
#: precision (:func:`repro.backend.active_precision`) because the errors
#: flow through backend SVDs — a process that switches between numpy64 and
#: numpy32 must never serve one precision's errors (or the calibration
#: curve built from them) to the other.
_LAYER_ERRORS: Dict[Tuple[str, int, int, int, int, int], float] = {}
_CALIBRATION_CACHE: Dict[Tuple[str, str, int], Tuple[np.ndarray, np.ndarray]] = {}

#: Rank divisors of the Table I anchors: every report's proxy configuration.
_ANCHOR_DIVISORS = sorted({divisor for anchors in TABLE1_ACCURACY.values() for _, divisor in anchors})


def _layer_error(precision: str, seed: int, m: int, n: int, groups: int, rank: int) -> float:
    """Relative group low-rank error of one reference layer (Theorem 1's ``ε_g/||W||``).

    A miss decomposes the layer's column blocks once, directly through the
    active backend — not the shared decomposition cache, which would pin
    the factors for the life of the process and spill them into an
    attached store — and memoizes the error of ``rank`` and of every
    anchor rank of the shape, so one SVD per block serves all of Table I.
    """
    key = (precision, seed, m, n, groups, rank)
    error = _LAYER_ERRORS.get(key)
    if error is None:
        matrix = reference_matrix(seed, m, n)
        backend = resolve_backend(None)
        svds = [backend.svd(block) for block in split_columns(matrix, groups)]
        for each in {rank, *(max(1, m // divisor) for divisor in _ANCHOR_DIVISORS)}:
            factors = GroupLowRankFactors(tuple(truncate_svd(svd, each) for svd in svds))
            _LAYER_ERRORS[key[:-1] + (each,)] = group_relative_error(matrix, factors)
        error = _LAYER_ERRORS[key]
    return error


@dataclass
class AccuracyProxy:
    """Calibrated (network, compression configuration) → accuracy estimator."""

    network: str = "resnet20"
    seed: int = 0
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if self.network not in BASELINE_ACCURACY:
            raise ValueError(
                f"unknown network {self.network!r}; expected one of {sorted(BASELINE_ACCURACY)}"
            )
        self._geometries = compressible_geometries(self.network)
        self._rng = np.random.default_rng(self.seed + 12345)

    # ------------------------------------------------------------------
    # Baseline
    # ------------------------------------------------------------------
    @property
    def baseline_accuracy(self) -> float:
        """Accuracy of the uncompressed 4-bit QAT model."""
        return BASELINE_ACCURACY[self.network]

    # ------------------------------------------------------------------
    # Low-rank configurations
    # ------------------------------------------------------------------
    def mean_relative_error(self, rank_divisor: int, groups: int) -> float:
        """Mean per-layer relative reconstruction error of a (g, divisor) configuration."""
        if rank_divisor < 1:
            raise ValueError(f"rank_divisor must be at least 1, got {rank_divisor}")
        if groups < 1:
            raise ValueError(f"groups must be at least 1, got {groups}")
        precision = active_precision()
        errors: List[float] = [
            _layer_error(
                precision,
                self.seed,
                geometry.m,
                geometry.n,
                effective_groups(geometry, groups),
                max(1, geometry.m // rank_divisor),
            )
            for geometry in self._geometries
        ]
        return float(np.mean(errors))

    def _calibration_curve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted (error, accuracy) anchor arrays with monotonicity enforced."""
        cache_key = (self.network, active_precision(), self.seed)
        cached = _CALIBRATION_CACHE.get(cache_key)
        if cached is not None:
            return cached
        anchors = TABLE1_ACCURACY[self.network]
        errors = []
        accuracies = []
        for (groups, divisor), accuracy in anchors.items():
            errors.append(self.mean_relative_error(divisor, groups))
            accuracies.append(accuracy)
        errors_arr = np.asarray(errors)
        acc_arr = np.asarray(accuracies)
        order = np.argsort(errors_arr)
        errors_sorted = errors_arr[order]
        acc_sorted = acc_arr[order]
        # Accuracy must not increase with error: enforce a running maximum from
        # the high-error end so the interpolation is monotone non-increasing.
        acc_monotone = np.maximum.accumulate(acc_sorted[::-1])[::-1]
        curve = (errors_sorted, acc_monotone)
        _CALIBRATION_CACHE[cache_key] = curve
        return curve

    def lowrank_accuracy_from_error(self, mean_relative_error: float) -> float:
        """Map a measured mean relative reconstruction error to an accuracy estimate."""
        errors, accuracies = self._calibration_curve()
        if mean_relative_error <= errors[0]:
            # Better than the best anchor: interpolate towards the baseline at zero error.
            return float(
                np.interp(
                    mean_relative_error,
                    [0.0, errors[0]],
                    [self.baseline_accuracy, accuracies[0]],
                )
            )
        if mean_relative_error >= errors[-1]:
            # Worse than the worst anchor: decay linearly towards chance level.
            chance = 100.0 / (10 if self.network == "resnet20" else 100)
            span = max(1e-9, 1.0 - errors[-1])
            fraction = min(1.0, (mean_relative_error - errors[-1]) / span)
            return float(accuracies[-1] + (chance - accuracies[-1]) * fraction)
        return float(np.interp(mean_relative_error, errors, accuracies))

    def lowrank_accuracy(self, rank_divisor: int, groups: int) -> float:
        """Accuracy estimate of the proposed method for one (g, divisor) configuration."""
        error = self.mean_relative_error(rank_divisor, groups)
        accuracy = self.lowrank_accuracy_from_error(error)
        return self._jitter(accuracy)

    # ------------------------------------------------------------------
    # Baselines
    # ------------------------------------------------------------------
    def pattern_pruning_accuracy(self, entries: int) -> float:
        """Accuracy estimate of PatDNN-style pattern pruning with ``entries`` kept weights."""
        table = PATTERN_ACCURACY[self.network]
        entries = int(np.clip(entries, min(table), max(table)))
        return self._jitter(table[entries])

    def pairs_accuracy(self, entries: int) -> float:
        """Accuracy estimate of PAIRS row-skipping pruning."""
        accuracy = self.pattern_pruning_accuracy(entries) + PAIRS_ACCURACY_BONUS
        return min(accuracy, self.baseline_accuracy)

    def quantization_accuracy(self, bits: int) -> float:
        """Accuracy estimate of a dedicated DoReFa-quantized model (Fig. 8 sweep)."""
        table = QUANTIZATION_ACCURACY[self.network]
        bits = int(np.clip(bits, min(table), max(table)))
        return self._jitter(table[bits])

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _jitter(self, accuracy: float) -> float:
        """Optional trial-to-trial noise emulating the paper's three-seed averaging."""
        if self.noise_std <= 0.0:
            return accuracy
        return float(accuracy + self._rng.normal(0.0, self.noise_std))
