"""Low-rank compression for IMC arrays — the paper's primary contribution.

Sub-modules:

* :mod:`repro.lowrank.decompose`   — truncated SVD ``D(·)`` and rank utilities,
* :mod:`repro.lowrank.group`       — group low-rank decomposition ``D_g(·)`` (Theorem 1),
* :mod:`repro.lowrank.sdk_lowrank` — SDK-aware factor mapping ``(I_N ⊗ L)·SDK(R)`` (Theorem 2),
* :mod:`repro.lowrank.layers`      — drop-in compressed convolution / linear layers,
* :mod:`repro.lowrank.compress`    — model-level compression API and reports,
* :mod:`repro.lowrank.search`      — rank / group sweeps and Pareto-front extraction.

Names load on first use (PEP 562): the decomposition operators the engine and
the accuracy proxy need do not pull in the layer, compression and search
modules, which depend on the :mod:`repro.nn` substrate.
"""

from .._lazy import lazy_exports

# ``decompose`` names both a submodule and its headline function.  Binding
# the function eagerly keeps it the package attribute: a later import of the
# submodule (``from .decompose import ...`` anywhere) no longer rebinds it.
from .decompose import decompose as decompose

_EXPORTS = {
    "decompose": (
        "LowRankFactors",
        "truncated_svd",
        "decompose",
        "reconstruction_error",
        "relative_error",
        "singular_value_energy",
        "optimal_rank_for_error",
        "rank_for_compression_ratio",
        "parameter_count",
    ),
    "group": (
        "GroupLowRankFactors",
        "split_columns",
        "group_decompose",
        "group_reconstruction_error",
        "group_relative_error",
        "shared_left_factors",
        "theorem1_errors",
    ),
    "sdk_lowrank": (
        "SDKLowRankMapping",
        "kron_identity",
        "sdk_lowrank_factors",
        "sdk_group_lowrank_factors",
        "verify_theorem2",
    ),
    "layers": ("GroupLowRankConv2d", "LowRankConv2d", "GroupLowRankLinear", "LowRankLinear"),
    "rank_allocation": (
        "LayerSensitivity",
        "RankAllocation",
        "layer_sensitivity",
        "network_sensitivity",
        "allocate_ranks_for_error_budget",
        "allocate_ranks_for_cycle_budget",
    ),
    "compress": (
        "CompressionSpec",
        "LayerCompressionRecord",
        "CompressionReport",
        "compress_model",
        "compress_conv",
        "compress_linear",
        "default_rank_fn",
        "rank_from_divisor",
        "eligible_layers",
    ),
    "search": (
        "SweepPoint",
        "SweepResult",
        "network_lowrank_cycles",
        "sweep_configurations",
        "pareto_front",
        "best_configuration",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
