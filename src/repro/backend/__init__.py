"""Execution backends: the numpy kernels at float64 (``numpy64``, the
reference) or float32 (``numpy32``) precision.

See :mod:`repro.backend.core` and ENGINE.md, "Execution backends".
Selection precedence: explicit ``backend=`` argument > an open
:func:`using_backend` scope (the CLI's global ``--backend`` flag) > the
process default (:func:`set_default_backend`) > ``$REPRO_BACKEND`` >
``numpy64``.
"""

from .core import (
    DEFAULT_BACKEND_NAME,
    ENV_VAR,
    FLOAT32_POLICY,
    FLOAT64_POLICY,
    Backend,
    PrecisionPolicy,
    TileLayout,
    active_backend,
    active_precision,
    active_salt_token,
    backend_names,
    backend_policy,
    default_backend_name,
    get_backend,
    registered_salt_tokens,
    resolve_backend,
    set_default_backend,
    using_backend,
)

__all__ = [
    "DEFAULT_BACKEND_NAME",
    "ENV_VAR",
    "FLOAT32_POLICY",
    "FLOAT64_POLICY",
    "PrecisionPolicy",
    "Backend",
    "TileLayout",
    "active_backend",
    "active_precision",
    "active_salt_token",
    "backend_names",
    "backend_policy",
    "default_backend_name",
    "get_backend",
    "registered_salt_tokens",
    "resolve_backend",
    "set_default_backend",
    "using_backend",
]
