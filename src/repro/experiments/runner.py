"""Run every registered experiment and emit a combined report.

:func:`run_all` reproduces all of Table I, Figs. 6–9 and the robustness and
layer-families sweeps in one pass through the engine's sweep registry
(:mod:`repro.engine.sweep`); :func:`format_report` renders the plain-text
report and :func:`suite_to_json` the machine-readable document with every
reproduced number.  ``python -m repro report`` is the command-line front end
(``--arrays``, ``--trials``, ``--json``, ``--shard``, and the global
``--store``/``--backend``/``--workers``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..engine.cache import default_decomposition_cache
from ..engine.sweep import ShardStats, experiment_registry, run_experiments
from ..store import ExperimentStore
from .fig6 import Fig6Result, format_fig6, headline_metrics
from .fig7 import Fig7Result, format_fig7
from .fig8 import Fig8Result, format_fig8, quantization_speedup
from .fig9 import Fig9Result, format_fig9, iso_accuracy_speedup
from .layer_families import LayerFamiliesResult, format_layer_families
from .robustness import RobustnessResult, format_robustness
from .table1 import Table1Result, format_table1

__all__ = [
    "ExperimentSuite",
    "run_all",
    "run_shard",
    "format_shard_summary",
    "format_report",
    "suite_overrides",
    "suite_to_json",
]

#: Report order of the combined suite (also the sharded execution order).
SUITE_EXPERIMENTS = ("table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families")


@dataclass
class ExperimentSuite:
    """Results of every reproduced table and figure, plus the robustness sweep."""

    table1: Table1Result
    fig6: Fig6Result
    fig7: Fig7Result
    fig8: Fig8Result
    fig9: Fig9Result
    robustness: Optional[RobustnessResult] = None
    layer_families: Optional[LayerFamiliesResult] = None

    def headline_summary(self) -> str:
        """One-paragraph summary mirroring the paper's abstract-level claims."""
        # The paper quotes its headline numbers on the WRN16-4 / 32x32 panel;
        # fall back gracefully when --arrays restricts the sweep.
        candidates = [p for p in self.fig6.panels if p.network == "wrn16_4"] or self.fig6.panels
        wrn_panel = min(candidates, key=lambda p: p.array_size)
        metrics = headline_metrics(wrn_panel)
        fig8_speedup = max(quantization_speedup(p) for p in self.fig8.panels)
        fig9_lines = []
        for panel in self.fig9.panels:
            summary = iso_accuracy_speedup(panel)
            if summary["speedup"] is not None:
                fig9_lines.append(f"{panel.network}: {summary['speedup']:.1f}x")
        return (
            f"WRN16-4 vs pruning: up to {metrics['max_speedup']:.1f}x speedup / "
            f"+{metrics['max_accuracy_gain']:.1f}% accuracy;  "
            f"energy saving vs pattern pruning up to {self.fig7.max_saving_vs_pattern:.0%}, "
            f"vs im2col up to {self.fig7.max_saving_vs_im2col:.0%};  "
            f"speedup over quantization up to {fig8_speedup:.1f}x;  "
            f"iso-accuracy speedup over traditional low-rank: {', '.join(fig9_lines)}"
        )

def suite_overrides(
    names: Sequence[str],
    include_fig6_arrays: Optional[Sequence[int]],
    robustness_trials: int,
    store: Optional[ExperimentStore] = None,
    shard: Optional[Tuple[int, int]] = None,
) -> Dict[str, Dict[str, Any]]:
    """The per-experiment :func:`run_experiments` overrides of a suite run.

    The one place the report's options (``--arrays``, ``--trials``, the
    store and a shard) become experiment keywords — :func:`run_all`,
    :func:`run_shard` and the experiment service all build their runs here,
    so a service job's lease namespace is the one its run really uses.
    """
    overrides: Dict[str, Dict[str, Any]] = {name: {} for name in names}
    for name in ("robustness", "layer_families"):
        if name in overrides:
            overrides[name]["trials"] = robustness_trials
    if "fig6" in overrides and include_fig6_arrays is not None:
        overrides["fig6"]["array_sizes"] = tuple(include_fig6_arrays)
    if store is not None:
        for name in names:
            overrides[name]["store"] = store
            if shard is not None:
                overrides[name]["shard"] = shard
    return overrides


def run_all(
    include_fig6_arrays: Optional[Sequence[int]] = None,
    robustness_trials: int = 8,
    store: Optional[ExperimentStore] = None,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> ExperimentSuite:
    """Execute every registered harness with the paper's default sweeps.

    ``include_fig6_arrays`` restricts the Fig. 6 array-size sweep (the CLI's
    ``--arrays``); ``robustness_trials`` sets the Monte-Carlo trial count of
    the scenario robustness and layer-families sweeps.  With ``store`` the
    run is incremental: grid cells already materialized in the store are
    decoded instead of recomputed (a fully warm store makes this a pure
    assembly pass), and every fresh cell is persisted as it completes, so
    interrupted runs resume.  ``backend`` scopes the execution backend of the
    whole suite (``None`` keeps the active default).

    ``workers`` (the CLI's global ``--workers``, default ``$REPRO_WORKERS``,
    else 1) runs the suite's grid cells in worker *processes* with
    store-shard work stealing (:mod:`repro.parallel`); the assembled suite is
    byte-identical to a serial run.  Without a ``store`` the workers share an
    ephemeral one for the duration of the run.
    """
    overrides = suite_overrides(SUITE_EXPERIMENTS, include_fig6_arrays, robustness_trials, store)
    # Attach (or drop) the store's second-level SVD cache before any SVD runs
    # — and a storeless call never leaks a previously attached store.
    if store is not None:
        default_decomposition_cache.attach_store(store)
    else:
        default_decomposition_cache.detach_store()
    results = run_experiments(
        names=SUITE_EXPERIMENTS, overrides=overrides, backend=backend, workers=workers
    )
    return ExperimentSuite(**results)


def run_shard(
    shard: Tuple[int, int],
    store: ExperimentStore,
    include_fig6_arrays: Optional[Sequence[int]] = None,
    robustness_trials: int = 8,
    backend: Optional[str] = None,
) -> Dict[str, ShardStats]:
    """Execute one shard of the suite's grid cells into the shared store.

    Every experiment's grid cells are partitioned by fingerprint; this shard
    computes only the cells it owns that the store does not already hold
    (resuming an interrupted shard is therefore free) and persists each as it
    completes.  Nothing is assembled — run :func:`run_all` with the same store
    afterwards (or ``repro report --store``) to assemble the full suite from
    the materialized cells.
    """
    overrides = suite_overrides(
        SUITE_EXPERIMENTS, include_fig6_arrays, robustness_trials, store, shard
    )
    default_decomposition_cache.attach_store(store)
    return run_experiments(names=SUITE_EXPERIMENTS, overrides=overrides, backend=backend)


def format_shard_summary(stats: Mapping[str, ShardStats]) -> str:
    """Render one line per experiment of a sharded run's cell accounting."""
    lines = []
    for name, stat in stats.items():
        k, n = stat.shard
        lines.append(
            f"shard {k}/{n} — {name}: computed {stat.computed}, "
            f"resumed {stat.resumed}, foreign {stat.foreign} "
            f"(of {stat.total_cells} cells)"
        )
    totals = (
        sum(s.computed for s in stats.values()),
        sum(s.resumed for s in stats.values()),
        sum(s.total_cells for s in stats.values()),
    )
    lines.append(
        f"shard total: computed {totals[0]}, resumed {totals[1]} of {totals[2]} cells"
    )
    return "\n".join(lines)


def format_report(suite: ExperimentSuite, include_plots: bool = False) -> str:
    """Render the full report as plain text."""
    sections = [
        "=" * 78,
        "Reproduction report — Low-Rank Compression for IMC Arrays (DATE 2025)",
        "=" * 78,
        suite.headline_summary(),
        "",
        format_table1(suite.table1),
        "",
        format_fig6(suite.fig6, include_plots=include_plots),
        "",
        format_fig7(suite.fig7, include_plots=include_plots),
        "",
        format_fig8(suite.fig8, include_plots=include_plots),
        "",
        format_fig9(suite.fig9, include_plots=include_plots),
    ]
    if suite.robustness is not None:
        sections += ["", format_robustness(suite.robustness, include_plots=include_plots)]
    if suite.layer_families is not None:
        sections += ["", format_layer_families(suite.layer_families, include_plots=include_plots)]
    return "\n".join(sections)


def suite_to_json(suite: ExperimentSuite) -> Dict[str, Any]:
    """Machine-readable document with every reproduced number."""
    registry = experiment_registry()
    document: Dict[str, Any] = {
        "report": "conf_date_JeonRK25",
        "headline": suite.headline_summary(),
        "experiments": {},
    }
    for name in ("table1", "fig6", "fig7", "fig8", "fig9", "robustness", "layer_families"):
        result = getattr(suite, name)
        if result is None:  # robustness/layer_families are optional on hand-built suites
            continue
        spec = registry[name]
        document["experiments"][name] = {
            "title": spec.title,
            "result": spec.serialize(result),
        }
    return document
