"""Fig. 6 — accuracy vs. computing cycles: proposed method vs. pattern pruning.

The figure has six panels (ResNet-20 and WRN16-4 × array sizes 32/64/128).
Each panel plots:

* the uncompressed baseline (accuracy of the 4-bit QAT model, im2col cycles),
* PatDNN-style pattern pruning for 1–8 kept entries,
* PAIRS row-skipping pruning for 1–8 kept entries,
* the Pareto front of the proposed method's (group, rank) sweep.

The headline numbers the paper quotes (up to 2.5× speed-up and +20.9 %
accuracy at matched operating points on WRN16-4) are extracted from the same
series by :func:`headline_metrics`.
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
    ARRAY_SIZES,
    GROUP_COUNTS,
    PRUNING_ENTRIES,
    RANK_DIVISORS,
    MethodPoint,
    NetworkWorkload,
    baseline_cycles,
    get_workload,
    lowrank_network_cycles,
    pairs_network_cycles,
    pattern_network_cycles,
)

__all__ = ["Fig6Panel", "Fig6Result", "run_fig6", "format_fig6", "headline_metrics"]


@dataclass
class Fig6Panel:
    """One panel of Fig. 6: all method series for a (network, array size) pair."""

    network: str
    array_size: int
    baseline: MethodPoint
    ours: List[MethodPoint] = field(default_factory=list)
    ours_pareto: List[MethodPoint] = field(default_factory=list)
    patdnn: List[MethodPoint] = field(default_factory=list)
    pairs: List[MethodPoint] = field(default_factory=list)

    def series(self) -> Dict[str, List[Tuple[float, float]]]:
        """(cycles, accuracy) series keyed by method, ready for plotting."""
        return {
            "ours": [(p.cycles, p.accuracy) for p in self.ours_pareto],
            "PatDNN": [(p.cycles, p.accuracy) for p in self.patdnn],
            "PAIRS": [(p.cycles, p.accuracy) for p in self.pairs],
            "baseline": [(self.baseline.cycles, self.baseline.accuracy)],
        }


@dataclass
class Fig6Result:
    """All panels of Fig. 6."""

    panels: List[Fig6Panel] = field(default_factory=list)

    def panel(self, network: str, array_size: int) -> Fig6Panel:
        for candidate in self.panels:
            if candidate.network == network and candidate.array_size == array_size:
                return candidate
        raise KeyError(f"no Fig. 6 panel for ({network}, {array_size})")


def _ours_points(
    workload: NetworkWorkload,
    array: ArrayDims,
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
) -> List[MethodPoint]:
    points = []
    for groups in group_counts:
        for divisor in rank_divisors:
            cycles = lowrank_network_cycles(workload, array, divisor, groups, use_sdk=True)
            accuracy = workload.proxy.lowrank_accuracy(divisor, groups)
            points.append(
                MethodPoint(
                    method="ours",
                    accuracy=accuracy,
                    cycles=cycles,
                    detail=f"g={groups}, k=m/{divisor}",
                )
            )
    return points


def _fig6_panel(
    network: str,
    size: int,
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
    pruning_entries: Sequence[int],
) -> Fig6Panel:
    """One sweep point: the full method comparison of a (network, array) panel."""
    workload = get_workload(network)
    array = ArrayDims.square(size)
    baseline = MethodPoint(
        method="baseline im2col",
        accuracy=workload.baseline_accuracy,
        cycles=baseline_cycles(workload, array),
    )
    ours = _ours_points(workload, array, group_counts, rank_divisors)
    patdnn = [
        MethodPoint(
            method="PatDNN",
            accuracy=workload.proxy.pattern_pruning_accuracy(entries),
            cycles=pattern_network_cycles(workload, array, entries),
            detail=f"entries={entries}",
        )
        for entries in pruning_entries
    ]
    pairs = [
        MethodPoint(
            method="PAIRS",
            accuracy=workload.proxy.pairs_accuracy(entries),
            cycles=pairs_network_cycles(workload, array, entries),
            detail=f"entries={entries}",
        )
        for entries in pruning_entries
    ]
    return Fig6Panel(
        network=network,
        array_size=size,
        baseline=baseline,
        ours=ours,
        ours_pareto=pareto_front(ours),
        patdnn=patdnn,
        pairs=pairs,
    )


def _fig6_cell_config(
    network: str,
    size: int,
    group_counts: Sequence[int],
    rank_divisors: Sequence[int],
    pruning_entries: Sequence[int],
) -> Mapping[str, Any]:
    """The canonical store key of one Fig. 6 panel.

    The panel key omits the *requested* array-size subset, so e.g.
    ``--arrays 64`` reuses the (network, 64) panel a full sweep materialized.
    """
    return {
        "network": network,
        "array_size": size,
        "group_counts": list(group_counts),
        "rank_divisors": list(rank_divisors),
        "pruning_entries": list(pruning_entries),
    }


def _fig6_plan(
    networks: Sequence[str] = ("resnet20", "wrn16_4"),
    array_sizes: Sequence[int] = ARRAY_SIZES,
    group_counts: Sequence[int] = GROUP_COUNTS,
    rank_divisors: Sequence[int] = RANK_DIVISORS,
    pruning_entries: Sequence[int] = PRUNING_ENTRIES,
) -> Tuple[List[Tuple[Any, ...]], Callable[[List[Fig6Panel]], Fig6Result]]:
    """Fig. 6's grid: one (network, array size) panel per point."""
    points = [
        (network, size, tuple(group_counts), tuple(rank_divisors), tuple(pruning_entries))
        for network in networks
        for size in array_sizes
    ]
    return points, lambda panels: Fig6Result(panels=panels)

def run_fig6(**params: Any) -> Union[Fig6Result, ShardStats]:
    """Compute every Fig. 6 panel.

    Domain keywords: ``networks``, ``array_sizes``, ``group_counts``,
    ``rank_divisors``, ``pruning_entries``.  The execution keywords
    ``store``/``shard``/``backend``/``workers``/``lease_ttl`` are those of
    :meth:`~repro.engine.sweep.ExperimentSpec.run`.
    """
    return FIG6.run(**params)

def headline_metrics(panel: Fig6Panel) -> Dict[str, float]:
    """Extract the panel's headline comparisons against pruning.

    * ``max_speedup`` — largest cycle ratio (pruning / ours) over pairs of
      operating points where the proposed method is at least as accurate.
    * ``max_accuracy_gain`` — largest accuracy gain of the proposed method over
      pruning points that need at least as many cycles.
    """
    pruning = panel.patdnn + panel.pairs
    max_speedup = 0.0
    max_gain = 0.0
    for ours in panel.ours_pareto:
        for other in pruning:
            if ours.accuracy >= other.accuracy and ours.cycles > 0:
                max_speedup = max(max_speedup, other.cycles / ours.cycles)
            if ours.cycles <= other.cycles:
                max_gain = max(max_gain, ours.accuracy - other.accuracy)
    return {"max_speedup": max_speedup, "max_accuracy_gain": max_gain}


def format_fig6(result: Fig6Result, include_plots: bool = True) -> str:
    """Render every panel as a table (and optionally an ASCII scatter plot)."""
    blocks: List[str] = []
    for panel in result.panels:
        headers = ["method", "config", "accuracy (%)", "cycles"]
        rows: List[List[object]] = [
            ["baseline", "im2col, uncompressed", f"{panel.baseline.accuracy:.1f}", format_cycles(panel.baseline.cycles)]
        ]
        for point in panel.ours_pareto:
            rows.append(["ours", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        for point in panel.patdnn:
            rows.append(["PatDNN", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        for point in panel.pairs:
            rows.append(["PAIRS", point.detail, f"{point.accuracy:.1f}", format_cycles(point.cycles)])
        metrics = headline_metrics(panel)
        title = (
            f"Fig. 6 — {panel.network}, array {panel.array_size}x{panel.array_size} "
            f"(max speedup {metrics['max_speedup']:.1f}x, "
            f"max accuracy gain +{metrics['max_accuracy_gain']:.1f}%)"
        )
        blocks.append(format_table(headers, rows, title=title))
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


FIG6 = register_experiment(
    ExperimentSpec(
        name="fig6",
        title="Fig. 6 — accuracy vs. computing cycles vs. pattern pruning",
        kind="fig6/panel",
        cell=_fig6_panel,
        cell_config=_fig6_cell_config,
        result_type=Fig6Panel,
        plan=_fig6_plan,
        formatter=format_fig6,
    )
)
