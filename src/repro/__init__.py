"""repro — reproduction of "Low-Rank Compression for IMC Arrays" (DATE 2025).

The package is organized by subsystem (see DESIGN.md for the full inventory):

* :mod:`repro.nn`           — numpy autograd framework, layers, optimizers, models,
* :mod:`repro.mapping`      — im2col / SDK / VW-SDK weight mapping and the AR/AC cycle model,
* :mod:`repro.lowrank`      — the paper's contribution: group low-rank + SDK-aware factor mapping,
* :mod:`repro.quantization` — DoReFa / uniform QAT substrate,
* :mod:`repro.pruning`      — pattern pruning, PAIRS and structured pruning baselines,
* :mod:`repro.imc`          — crossbar arrays, peripherals, energy model, noise, simulation,
* :mod:`repro.data`         — synthetic CIFAR-like datasets and loaders,
* :mod:`repro.training`     — trainer, evaluation and the calibrated accuracy proxy,
* :mod:`repro.analysis`     — Pareto fronts, tables, ASCII plots,
* :mod:`repro.experiments`  — one harness per paper table / figure,
* :mod:`repro.store`        — persistent experiment store (canonical fingerprints,
  content-addressed artifacts; makes sweeps incremental, resumable, shardable),
* :mod:`repro.parallel`     — process-parallel sweep execution with store-shard
  work stealing (``--workers N`` / ``$REPRO_WORKERS``),
* :mod:`repro.workloads`    — layer-geometry catalogues of ResNet-20 and WRN16-4.

Quick start::

    from repro import nn, lowrank, mapping
    model = nn.models.resnet20()
    report = lowrank.compress_model(model, lowrank.CompressionSpec(rank_divisor=8, groups=4))

Importing the package loads none of its subsystems: each submodule and each
re-exported name below is imported on first use (PEP 562), so a command that
never trains a model never pays for :mod:`repro.nn` or :mod:`repro.data`.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

_SUBMODULES = (
    "nn",
    "mapping",
    "lowrank",
    "quantization",
    "pruning",
    "imc",
    "data",
    "training",
    "analysis",
    "workloads",
)

_EXPORTS = {
    "lowrank": ("CompressionSpec", "GroupLowRankConv2d", "compress_model", "group_decompose"),
    "mapping": ("ArrayDims", "ConvGeometry", "ParallelWindow", "SDKMapping"),
    "training": ("AccuracyProxy",),
}

__all__ = ["__version__", *_SUBMODULES, *(name for names in _EXPORTS.values() for name in names)]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
