"""Workload zoo: per-layer geometries of every evaluation network.

The package replaces the old single-module catalogue with a registry
(:mod:`.registry`) fed by two preset modules:

* :mod:`.geometries` — the paper's evaluation CNNs (ResNet-20, WRN16-4),
* :mod:`.modern`     — modern-layer presets (grouped / depthwise / attention):
  ``resnext20``, ``mobilenet_cifar``, ``tiny_transformer``,

plus :mod:`.reference`, the memoized read-only Gaussian reference weights
that layers known only by their geometry are measured on.

Importing the package registers every preset; ``registered_networks()``
enumerates them and ``network_geometries(name)`` dispatches with an
actionable error on unknown names.  See ``docs/workloads.md`` for the
authoring guide.
"""

from .geometries import (
    compressible_geometries,
    resnet20_geometries,
    wrn16_4_geometries,
)
from .modern import (
    mobilenet_cifar_geometries,
    resnext20_geometries,
    tiny_transformer_geometries,
)
from .reference import effective_groups, reference_matrix
from .registry import (
    NETWORKS,
    NetworkEntry,
    network_entry,
    network_families,
    network_geometries,
    register_network,
    registered_networks,
)

__all__ = [
    "NETWORKS",
    "NetworkEntry",
    "register_network",
    "registered_networks",
    "network_entry",
    "network_geometries",
    "network_families",
    "resnet20_geometries",
    "wrn16_4_geometries",
    "compressible_geometries",
    "resnext20_geometries",
    "mobilenet_cifar_geometries",
    "tiny_transformer_geometries",
    "reference_matrix",
    "effective_groups",
]
