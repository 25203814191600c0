"""Fig. 8 — accuracy vs. cycles: the proposed method vs. quantized models.

The paper trains dedicated 1/2/3/4-bit DoReFa models of ResNet-20 and compares
them with the proposed low-rank models on 64×64 and 128×128 arrays.  Quantized
models keep the im2col mapping; their cycle benefit comes from bit-serial
input processing (cycles scale with the activation bit width relative to the
4-bit baseline), which is how :func:`repro.experiments.common.quantized_network_cycles`
models them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple, Union

from ..analysis.pareto import pareto_front
from ..analysis.plots import ascii_scatter
from ..analysis.tables import format_cycles, format_table
from ..engine.sweep import ExperimentSpec, ShardStats, register_experiment
from ..mapping.geometry import ArrayDims
from .common import (
    GROUP_COUNTS,
    QUANTIZATION_BITS,
    RANK_DIVISORS,
    MethodPoint,
    baseline_cycles,
    get_workload,
    lowrank_network_cycles,
    quantized_network_cycles,
)

__all__ = ["Fig8Panel", "Fig8Result", "run_fig8", "format_fig8", "quantization_speedup"]

#: Array sizes shown in Fig. 8.
FIG8_ARRAY_SIZES = (64, 128)


@dataclass
class Fig8Panel:
    """One panel: the proposed method's Pareto front vs. the quantization sweep."""

    network: str
    array_size: int
    baseline: MethodPoint
    ours_pareto: List[MethodPoint] = field(default_factory=list)
    quantized: List[MethodPoint] = field(default_factory=list)

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {
            "ours": [(p.cycles, p.accuracy) for p in self.ours_pareto],
            "quantization": [(p.cycles, p.accuracy) for p in self.quantized],
            "baseline": [(self.baseline.cycles, self.baseline.accuracy)],
        }


@dataclass
class Fig8Result:
    panels: List[Fig8Panel] = field(default_factory=list)

    def panel(self, network: str, array_size: int) -> Fig8Panel:
        for candidate in self.panels:
            if candidate.network == network and candidate.array_size == array_size:
                return candidate
        raise KeyError(f"no Fig. 8 panel for ({network}, {array_size})")


def quantization_speedup(panel: Fig8Panel) -> float:
    """Largest cycle ratio (quantized / ours) at operating points where ours is at least as accurate."""
    best = 0.0
    for ours in panel.ours_pareto:
        for quantized in panel.quantized:
            if ours.accuracy >= quantized.accuracy and ours.cycles > 0:
                best = max(best, quantized.cycles / ours.cycles)
    return best


def _fig8_panel(
    network: str,
    size: int,
    bits: Sequence[int],
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
) -> Fig8Panel:
    """One sweep point: the proposed method vs. the quantization sweep."""
    workload = get_workload(network)
    array = ArrayDims.square(size)
    ours = [
        MethodPoint(
            method="ours",
            accuracy=workload.proxy.lowrank_accuracy(divisor, groups),
            cycles=lowrank_network_cycles(workload, array, divisor, groups, use_sdk=True),
            detail=f"g={groups}, k=m/{divisor}",
        )
        for groups in group_counts
        for divisor in rank_divisors
    ]
    quantized = [
        MethodPoint(
            method="quantization",
            accuracy=workload.proxy.quantization_accuracy(bit),
            cycles=quantized_network_cycles(workload, array, bit),
            detail=f"{bit}-bit DoReFa",
        )
        for bit in bits
    ]
    return Fig8Panel(
        network=network,
        array_size=size,
        baseline=MethodPoint(
            method="baseline im2col",
            accuracy=workload.baseline_accuracy,
            cycles=baseline_cycles(workload, array),
        ),
        ours_pareto=pareto_front(ours),
        quantized=quantized,
    )


def _fig8_cell_config(
    network: str,
    size: int,
    bits: Sequence[int],
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
) -> Mapping[str, Any]:
    """The canonical store key of one Fig. 8 panel."""
    return {
        "network": network,
        "array_size": size,
        "bits": list(bits),
        "group_counts": list(group_counts),
        "rank_divisors": list(rank_divisors),
    }


def _fig8_plan(
    network: str = "resnet20",
    array_sizes: Sequence[int] = FIG8_ARRAY_SIZES,
    bits: Sequence[int] = QUANTIZATION_BITS,
    group_counts: Sequence[int] = GROUP_COUNTS,
    rank_divisors: Sequence[int] = RANK_DIVISORS,
) -> Tuple[List[Tuple[Any, ...]], Callable[[List[Fig8Panel]], Fig8Result]]:
    """Fig. 8's grid: one array-size panel of one network per point."""
    points = [
        (network, size, tuple(bits), tuple(group_counts), tuple(rank_divisors))
        for size in array_sizes
    ]
    return points, lambda panels: Fig8Result(panels=panels)

def run_fig8(**params: Any) -> Union[Fig8Result, ShardStats]:
    """Compute the Fig. 8 comparison for one network (ResNet-20 in the paper).

    Domain keywords: ``network``, ``array_sizes``, ``bits``,
    ``group_counts``, ``rank_divisors``.  The execution keywords
    ``store``/``shard``/``backend``/``workers``/``lease_ttl`` are those of
    :meth:`~repro.engine.sweep.ExperimentSpec.run`.
    """
    return FIG8.run(**params)

def format_fig8(result: Fig8Result, include_plots: bool = True) -> str:
    blocks: List[str] = []
    for panel in result.panels:
        headers = ["method", "config", "accuracy (%)", "cycles"]
        rows: List[List[object]] = [
            ["baseline", "4-bit QAT, im2col", f"{panel.baseline.accuracy:.1f}", format_cycles(panel.baseline.cycles)]
        ]
        for point in panel.ours_pareto:
            rows.append(["ours", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        for point in panel.quantized:
            rows.append(["quantization", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        speedup = quantization_speedup(panel)
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Fig. 8 — {panel.network}, array {panel.array_size}x{panel.array_size} "
                    f"(max speedup over quantization {speedup:.1f}x)"
                ),
            )
        )
        if include_plots:
            blocks.append(
                ascii_scatter(
                    panel.series(),
                    x_label="computing cycles",
                    y_label="accuracy (%)",
                    title=f"{panel.network} @ {panel.array_size}x{panel.array_size}",
                )
            )
    return "\n\n".join(blocks)


FIG8 = register_experiment(
    ExperimentSpec(
        name="fig8",
        title="Fig. 8 — accuracy vs. cycles vs. dedicated quantized models",
        kind="fig8/panel",
        cell=_fig8_panel,
        cell_config=_fig8_cell_config,
        result_type=Fig8Panel,
        plan=_fig8_plan,
        formatter=format_fig8,
    )
)
