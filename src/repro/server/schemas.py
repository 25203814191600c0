"""Defensive sweep-spec parsing: untrusted JSON in, canonical job key out.

A ``POST /sweeps`` body is attacker-adjacent input; parsing it follows the
reference servers' defensive idiom (SNIPPETS.md snippets 1-2): every field
type-checked and range-capped with a precise error message, unknown fields
rejected outright rather than silently ignored (a typoed ``"trails"`` must
not quietly run a default sweep and cache it under the caller's intent).

The parsed :class:`SweepSpec` is *normalized* — defaults filled in,
experiment selection reduced to suite order — so that every request asking
for the same computation reduces to the same canonical fingerprint
(:func:`spec_fingerprint`), which is the job id.  Fields that cannot change
the result bytes are excluded from the fingerprint: ``workers`` only decides
how many processes compute the grid (``--workers N`` output is byte-identical
to ``--workers 1`` by the parallel subsystem's headline contract), so asking
for the same sweep at a different parallelism *must* hit the same cache
entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Tuple

from ..backend import backend_names, resolve_backend
from ..experiments.runner import SUITE_EXPERIMENTS
from ..store import experiment_fingerprint
from .config import ServerConfig

__all__ = ["SweepSpec", "SweepSpecError", "parse_sweep_spec", "spec_fingerprint"]

#: Fields a sweep-spec object may carry; anything else is a client error.
_KNOWN_FIELDS = ("experiments", "arrays", "trials", "backend", "workers")

#: Fig. 6 array sizes the engine's sweep grids are defined over.
_ALLOWED_ARRAYS = (32, 64, 128)

#: Default Monte-Carlo trial count (matches the CLI's ``report --trials``).
DEFAULT_TRIALS = 8


class SweepSpecError(ValueError):
    """A sweep specification failed validation (rendered as HTTP 400)."""


@dataclass(frozen=True)
class SweepSpec:
    """One validated, normalized sweep request.

    ``experiments`` is always in suite order; a full-suite spec
    (:attr:`is_full_suite`) renders its report through the exact CLI
    ``repro report --json`` path, so the service's bytes and the CLI's
    bytes are one artifact.
    """

    experiments: Tuple[str, ...]
    arrays: Optional[Tuple[int, ...]]
    trials: int
    backend: str
    workers: int

    @property
    def is_full_suite(self) -> bool:
        return self.experiments == tuple(SUITE_EXPERIMENTS)


def _require_int(value: Any, field: str) -> int:
    # bool is an int subclass; "trials": true must not mean 1.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SweepSpecError(f"{field!r} must be an integer, got {value!r}")
    return value


def parse_sweep_spec(payload: Any, config: Optional[ServerConfig] = None) -> SweepSpec:
    """Validate and normalize one decoded request body into a :class:`SweepSpec`.

    Raises :class:`SweepSpecError` with a client-actionable message on any
    malformed input; never lets an unvalidated value reach the executor.
    """
    config = config or ServerConfig()
    if not isinstance(payload, Mapping):
        raise SweepSpecError(
            f"sweep spec must be a JSON object, got {type(payload).__name__}"
        )
    unknown = sorted(set(payload) - set(_KNOWN_FIELDS))
    if unknown:
        raise SweepSpecError(
            f"unknown sweep spec fields {unknown}; allowed: {list(_KNOWN_FIELDS)}"
        )

    raw_names = payload.get("experiments")
    if raw_names is None:
        names = tuple(SUITE_EXPERIMENTS)
    else:
        if not isinstance(raw_names, (list, tuple)) or not raw_names:
            raise SweepSpecError(
                "'experiments' must be a non-empty list of experiment names"
            )
        seen = []
        for name in raw_names:
            if not isinstance(name, str) or name not in SUITE_EXPERIMENTS:
                raise SweepSpecError(
                    f"unknown experiment {name!r}; available: {list(SUITE_EXPERIMENTS)}"
                )
            if name in seen:
                raise SweepSpecError(f"duplicate experiment {name!r}")
            seen.append(name)
        # Suite order, not request order: the selection is a *set* of
        # experiments, and normalizing makes every permutation one job.
        names = tuple(name for name in SUITE_EXPERIMENTS if name in seen)

    raw_arrays = payload.get("arrays")
    arrays: Optional[Tuple[int, ...]] = None
    if raw_arrays is not None:
        if not isinstance(raw_arrays, (list, tuple)) or not raw_arrays:
            raise SweepSpecError("'arrays' must be a non-empty list of array sizes")
        sizes = []
        for size in raw_arrays:
            size = _require_int(size, "arrays")
            if size not in _ALLOWED_ARRAYS:
                raise SweepSpecError(
                    f"array size {size} not in the sweep grid {list(_ALLOWED_ARRAYS)}"
                )
            if size in sizes:
                raise SweepSpecError(f"duplicate array size {size}")
            sizes.append(size)
        # Ascending, like the grids themselves — another set-like field.
        arrays = tuple(sorted(sizes))
        if arrays == _ALLOWED_ARRAYS:
            arrays = None  # the full grid is the default: same job either way

    trials = payload.get("trials")
    if trials is None:
        trials = DEFAULT_TRIALS
    else:
        trials = _require_int(trials, "trials")
        if not 1 <= trials <= config.max_trials:
            raise SweepSpecError(
                f"'trials' must be between 1 and {config.max_trials}, got {trials}"
            )

    backend = payload.get("backend", config.backend)
    if backend is not None and (
        not isinstance(backend, str) or backend not in backend_names()
    ):
        raise SweepSpecError(
            f"unknown backend {backend!r}; known backends: {', '.join(backend_names())}"
        )
    # Normalize to the concrete backend name: an explicit "numpy64" and an
    # omitted backend under a numpy64 default are the same computation, so
    # they must be the same job.
    backend = resolve_backend(backend).name

    workers = payload.get("workers")
    if workers is None:
        workers = config.job_workers
    else:
        workers = _require_int(workers, "workers")
        if not 1 <= workers <= config.max_job_workers:
            raise SweepSpecError(
                f"'workers' must be between 1 and {config.max_job_workers}, "
                f"got {workers}"
            )

    return SweepSpec(
        experiments=names,
        arrays=arrays,
        trials=trials,
        backend=backend,
        workers=workers,
    )


def spec_fingerprint(spec: SweepSpec) -> str:
    """The canonical job id of a spec: a fingerprint of what decides the bytes.

    Uses the store's own canonical fingerprint machinery, so the id inherits
    the code-version salt — a numerics-changing release stops matching old
    jobs instead of serving their stale reports.  ``workers`` is deliberately
    absent (see the module docstring).
    """
    return experiment_fingerprint(
        "server/sweep",
        {
            "experiments": list(spec.experiments),
            "arrays": list(spec.arrays) if spec.arrays is not None else None,
            "trials": spec.trials,
            "backend": spec.backend,
        },
    )
