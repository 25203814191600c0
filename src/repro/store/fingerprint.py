"""Canonical experiment fingerprints: the key schema of the artifact store.

A fingerprint identifies one grid cell of an experiment sweep — the
(experiment kind, canonical configuration, code-version salt) triple — as a
stable 128-bit hex digest.  Two configurations that *mean* the same thing must
hash identically, and two that differ in any value must never collide, across
processes, platforms and Python hash seeds.  Canonicalization therefore:

* sorts mapping keys (dict insertion order is irrelevant),
* tags every scalar with its type (``1`` and ``1.0`` and ``"1"`` are three
  different configurations),
* encodes floats by their IEEE-754 hex form (``float.hex``), so the digest
  never depends on decimal ``repr`` formatting,
* converts numpy scalars/arrays to their Python equivalents (a config built
  from ``np.int64`` sweeps hashes like one built from ``int``),
* recurses through dataclasses by field (e.g. the energy model's peripheral
  specs), and
* merges a ``defaults`` mapping *under* the configuration, so omitting a
  keyword argument fingerprints identically to passing its default explicitly.

The code-version salt (:func:`code_version_salt`) is baked into every digest:
bump :data:`CODE_VERSION_SALT` whenever an engine change intentionally alters
reproduced numbers and every stale artifact misses (and is collectable via
``repro store gc``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, FrozenSet, Mapping, Optional

import numpy as np

from ..backend import active_salt_token, registered_salt_tokens

__all__ = [
    "CODE_VERSION_SALT",
    "code_version_salt",
    "active_salt",
    "valid_salts",
    "canonicalize",
    "canonical_json",
    "experiment_fingerprint",
]

#: Bump on any intentional numeric change so stale artifacts stop matching.
CODE_VERSION_SALT = "repro-store-v1"

#: Environment override, useful for forcing a cold store without deleting it.
SALT_ENV_VAR = "REPRO_STORE_SALT"


def code_version_salt() -> str:
    """The base code-version salt (``REPRO_STORE_SALT`` overrides the built-in)."""
    return os.environ.get(SALT_ENV_VAR) or CODE_VERSION_SALT


def active_salt() -> str:
    """The effective fingerprint salt: base salt + the active precision token.

    The execution backend's precision policy is folded into the salt
    (``repro-store-v1+float32`` under the ``numpy32`` backend), so warm
    artifacts computed at different precisions can never collide.  The
    float64 reference (``numpy64``) contributes an empty token and keeps the
    base salt.
    """
    token = active_salt_token()
    base = code_version_salt()
    return f"{base}+{token}" if token else base


def valid_salts() -> FrozenSet[str]:
    """Every salt a backend can currently write artifacts under.

    ``ls``/``gc`` staleness is judged against this set rather than the single
    active salt, so collecting garbage under ``numpy64`` never destroys the
    ``numpy32`` half of a shared store (and vice versa).
    """
    base = code_version_salt()
    return frozenset(
        f"{base}+{token}" if token else base for token in registered_salt_tokens()
    )


def canonicalize(value: Any) -> Any:
    """Reduce a configuration value to a canonical, type-tagged JSON structure.

    The result contains only lists and strings, so ``json.dumps`` of it is
    deterministic and injective: distinct canonical structures always produce
    distinct serializations (and therefore distinct digests, up to hash
    collisions of blake2b).
    """
    if value is None:
        return ["null"]
    if isinstance(value, (bool, np.bool_)):
        return ["b", "true" if value else "false"]
    if isinstance(value, (int, np.integer)):
        return ["i", str(int(value))]
    if isinstance(value, (float, np.floating)):
        return ["f", float(value).hex()]
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, bytes):
        return ["y", value.hex()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            [f.name, canonicalize(getattr(value, f.name))]
            for f in dataclasses.fields(value)
        ]
        return ["dc", type(value).__name__, fields]
    if isinstance(value, Mapping):
        items = [[canonicalize(key), canonicalize(item)] for key, item in value.items()]
        items.sort(key=lambda pair: json.dumps(pair[0]))
        return ["d", items]
    if isinstance(value, np.ndarray):
        return ["l", [canonicalize(item) for item in value.tolist()]]
    if isinstance(value, (list, tuple)):
        return ["l", [canonicalize(item) for item in value]]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        items.sort(key=json.dumps)
        return ["t", items]
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} value {value!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON serialization of the canonical form of ``value``."""
    return json.dumps(canonicalize(value), separators=(",", ":"))


def experiment_fingerprint(
    kind: str,
    config: Mapping[str, Any],
    defaults: Optional[Mapping[str, Any]] = None,
    salt: Optional[str] = None,
) -> str:
    """The store key of one (experiment kind, configuration) grid cell.

    ``defaults`` is merged under ``config`` before hashing, so a configuration
    that omits a parameter fingerprints identically to one passing the default
    value explicitly.  ``salt`` defaults to :func:`active_salt` — the base
    code-version salt plus the active backend's precision token.
    """
    merged = dict(defaults) if defaults else {}
    merged.update(config)
    payload = json.dumps(
        ["repro-fingerprint", kind, salt if salt is not None else active_salt(),
         canonicalize(merged)],
        separators=(",", ":"),
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()
