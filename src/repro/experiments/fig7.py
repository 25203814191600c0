"""Fig. 7 — normalized energy: im2col vs. pattern pruning vs. the proposed method.

Following the paper's setup, the proposed method uses the (group = 4,
rank = m/8) configuration ("high accuracy ... while achieving significant
computing cycle reduction") and the pattern-pruned comparison uses 6 kept
entries ("almost identical accuracy performance as our low-rank model").
Energies are normalized to the im2col baseline of the same network and array
size, exactly like the bars in the figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..analysis.plots import ascii_bars
from ..analysis.tables import format_table
from ..engine.sweep import ExperimentSpec, ShardStats, register_experiment
from ..imc.energy import EnergyModel
from ..mapping.geometry import ArrayDims
from .common import (
    ARRAY_SIZES,
    baseline_energy,
    get_workload,
    lowrank_network_energy,
    pattern_network_energy,
)

__all__ = ["Fig7Bar", "Fig7Result", "run_fig7", "format_fig7"]

#: The configuration the paper selects for the energy comparison.
OURS_GROUPS = 4
OURS_RANK_DIVISOR = 8
PATTERN_ENTRIES = 6


@dataclass(frozen=True)
class Fig7Bar:
    """Normalized energies of the three methods for one (network, array) pair."""

    network: str
    array_size: int
    im2col_energy_pj: float
    pattern_energy_pj: float
    ours_energy_pj: float

    @property
    def pattern_normalized(self) -> float:
        return self.pattern_energy_pj / self.im2col_energy_pj

    @property
    def ours_normalized(self) -> float:
        return self.ours_energy_pj / self.im2col_energy_pj

    @property
    def saving_vs_pattern(self) -> float:
        """Fractional energy saving of the proposed method vs. pattern pruning."""
        return 1.0 - self.ours_energy_pj / self.pattern_energy_pj

    @property
    def saving_vs_im2col(self) -> float:
        return 1.0 - self.ours_normalized


@dataclass
class Fig7Result:
    """All bars of Fig. 7 (both networks, every array size)."""

    bars: List[Fig7Bar] = field(default_factory=list)

    def bar(self, network: str, array_size: int) -> Fig7Bar:
        for candidate in self.bars:
            if candidate.network == network and candidate.array_size == array_size:
                return candidate
        raise KeyError(f"no Fig. 7 bar for ({network}, {array_size})")

    @property
    def max_saving_vs_pattern(self) -> float:
        return max(bar.saving_vs_pattern for bar in self.bars) if self.bars else 0.0

    @property
    def max_saving_vs_im2col(self) -> float:
        return max(bar.saving_vs_im2col for bar in self.bars) if self.bars else 0.0


def _fig7_bar(
    network: str,
    size: int,
    groups: int,
    rank_divisor: int,
    pattern_entries: int,
    model: EnergyModel,
) -> Fig7Bar:
    """One sweep point: the three-method energy bar of a (network, array) pair."""
    workload = get_workload(network)
    array = ArrayDims.square(size)
    return Fig7Bar(
        network=network,
        array_size=size,
        im2col_energy_pj=baseline_energy(workload, array, model),
        pattern_energy_pj=pattern_network_energy(workload, array, pattern_entries, model),
        ours_energy_pj=lowrank_network_energy(
            workload, array, rank_divisor, groups, use_sdk=True, model=model
        ),
    )


def _fig7_cell_config(
    network: str,
    size: int,
    groups: int,
    rank_divisor: int,
    pattern_entries: int,
    model: EnergyModel,
) -> Mapping[str, Any]:
    """The canonical store key of one Fig. 7 bar (peripheral specs included)."""
    return {
        "network": network,
        "array_size": size,
        "groups": groups,
        "rank_divisor": rank_divisor,
        "pattern_entries": pattern_entries,
        "peripherals": model.peripherals,
    }


def _fig7_plan(
    networks: Sequence[str] = ("resnet20", "wrn16_4"),
    array_sizes: Sequence[int] = ARRAY_SIZES,
    groups: int = OURS_GROUPS,
    rank_divisor: int = OURS_RANK_DIVISOR,
    pattern_entries: int = PATTERN_ENTRIES,
    model: Optional[EnergyModel] = None,
) -> Tuple[List[Tuple[Any, ...]], Callable[[List[Fig7Bar]], Fig7Result]]:
    """Fig. 7's grid: one (network, array size) energy bar per point."""
    model = model if model is not None else EnergyModel()
    points = [
        (network, size, groups, rank_divisor, pattern_entries, model)
        for network in networks
        for size in array_sizes
    ]
    return points, lambda bars: Fig7Result(bars=bars)

def run_fig7(**params: Any) -> Union[Fig7Result, ShardStats]:
    """Compute the Fig. 7 energy comparison.

    Domain keywords: ``networks``, ``array_sizes``, ``groups``,
    ``rank_divisor``, ``pattern_entries``, ``model`` (an
    :class:`~repro.imc.energy.EnergyModel`; default: the stock model).  The
    execution keywords ``store``/``shard``/``backend``/``workers``/
    ``lease_ttl`` are those of :meth:`~repro.engine.sweep.ExperimentSpec.run`.
    """
    return FIG7.run(**params)

def format_fig7(result: Fig7Result, include_plots: bool = True) -> str:
    """Render the normalized-energy bars as tables (and optional ASCII bars)."""
    blocks: List[str] = []
    networks = sorted({bar.network for bar in result.bars})
    for network in networks:
        headers = ["array", "im2col", "pattern pruning", "ours", "saving vs pattern", "saving vs im2col"]
        rows = []
        chart: Dict[str, float] = {}
        for bar in [b for b in result.bars if b.network == network]:
            rows.append(
                [
                    f"{bar.array_size}x{bar.array_size}",
                    "1.00",
                    f"{bar.pattern_normalized:.2f}",
                    f"{bar.ours_normalized:.2f}",
                    f"{bar.saving_vs_pattern:.0%}",
                    f"{bar.saving_vs_im2col:.0%}",
                ]
            )
            chart[f"{bar.array_size} im2col"] = 1.0
            chart[f"{bar.array_size} pattern"] = bar.pattern_normalized
            chart[f"{bar.array_size} ours"] = bar.ours_normalized
        blocks.append(
            format_table(headers, rows, title=f"Fig. 7 — normalized energy, {network}")
        )
        if include_plots:
            blocks.append(ascii_bars(chart, title=f"{network}: normalized energy (lower is better)"))
    return "\n\n".join(blocks)


FIG7 = register_experiment(
    ExperimentSpec(
        name="fig7",
        title="Fig. 7 — normalized energy vs. im2col and pattern pruning",
        kind="fig7/bar",
        cell=_fig7_bar,
        cell_config=_fig7_cell_config,
        result_type=Fig7Bar,
        plan=_fig7_plan,
        formatter=format_fig7,
    )
)
