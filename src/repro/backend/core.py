"""Execution backends: the numpy kernels at one of two fixed precisions.

Every kernel of :mod:`repro.engine` funnels its numerical heavy lifting —
batched matmuls, SVDs, array allocation — through a :class:`Backend`: the
numpy implementation of the execution surface at a **precision policy**
(:class:`PrecisionPolicy`), i.e. the dtype the execution arithmetic runs in,
together with the documented tolerance envelopes that precision guarantees
against the float64 reference, and the store-salt token that keeps
artifacts of different precisions from ever colliding.

Two backends exist, one per precision:

* ``numpy64`` — the float64 reference, bit-identical to the engine before
  backends existed (the ENGINE.md equivalence contract);
* ``numpy32`` — execution arithmetic in float32 within documented tolerance
  envelopes, fingerprint-salted so its store artifacts never collide with
  float64 ones.

A backend is resolved in a fixed precedence order:

1. an explicit ``backend=`` argument (a name or a :class:`Backend` instance),
2. the innermost open :func:`using_backend` scope (the CLI's global
   ``--backend`` flag opens one around every command),
3. the process default installed by :func:`set_default_backend`,
4. the ``$REPRO_BACKEND`` environment variable,
5. the built-in default, ``numpy64``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

__all__ = [
    "ENV_VAR",
    "DEFAULT_BACKEND_NAME",
    "FLOAT64_POLICY",
    "FLOAT32_POLICY",
    "PrecisionPolicy",
    "TileLayout",
    "Backend",
    "backend_names",
    "backend_policy",
    "get_backend",
    "resolve_backend",
    "active_backend",
    "active_precision",
    "active_salt_token",
    "registered_salt_tokens",
    "default_backend_name",
    "set_default_backend",
    "using_backend",
]

#: Environment variable naming the default execution backend.
ENV_VAR = "REPRO_BACKEND"

#: The reference backend every session starts on.
DEFAULT_BACKEND_NAME = "numpy64"


@dataclass(frozen=True)
class PrecisionPolicy:
    """The numeric contract of one execution precision.

    ``bit_identical`` policies reproduce the float64 reference engine
    bit-for-bit; non-bit-identical policies trade precision for throughput
    and promise agreement only within the tolerance envelope below.  The
    envelopes are consumed by the engine equivalence tests and the golden
    regression suite, so "tolerance mode" is a documented property of the
    policy rather than ad-hoc per-test slack.

    * ``output_rtol`` / ``output_atol`` bound analog MVM outputs against the
      float64 oracle (float64: BLAS reduction-order effects only).
    * ``associativity_rtol`` is the "agree to working precision" threshold of
      the quantized-path tests: the fraction of ADC-quantized outputs that
      must match the oracle this tightly (rounding-boundary flips are bounded
      separately, at one ADC step).
    * ``quantized_step_slack`` relaxes the one-ADC-step bound by the
      precision's own rounding error (exactly 0 for bit-identical policies).
    * ``golden_scale`` multiplies the golden suite's per-metric tolerances:
      1.0 keeps the float64 envelope, float32 widens every band by the
      documented factor (see ENGINE.md).
    * ``salt_token`` is folded into the store fingerprint salt; the empty
      token means "shares artifacts with the float64 reference".
    """

    name: str
    dtype: str
    bit_identical: bool
    salt_token: str
    output_rtol: float
    output_atol: float
    associativity_rtol: float
    quantized_step_slack: float
    golden_scale: float


#: The reference policy: plain float64, bit-identical by definition.
FLOAT64_POLICY = PrecisionPolicy(
    name="float64",
    dtype="float64",
    bit_identical=True,
    salt_token="",
    output_rtol=1e-10,
    output_atol=1e-12,
    associativity_rtol=1e-9,
    quantized_step_slack=0.0,
    golden_scale=1.0,
)

#: The float32 trade: execution arithmetic in single precision.  The
#: envelopes absorb float32 rounding through the longest reduction the
#: engine performs (a 288-element dot product plus the two-stage low-rank
#: chain); the golden scale additionally covers proxy-accuracy interpolation
#: amplifying SVD rounding and ADC rounding-tie flips in the robustness sweep
#: (widest observed drift: ~74x the float64 band on robustness error metrics;
#: 200x leaves headroom for other BLAS builds and SIMD kernels).
FLOAT32_POLICY = PrecisionPolicy(
    name="float32",
    dtype="float32",
    bit_identical=False,
    salt_token="float32",
    output_rtol=5e-4,
    output_atol=1e-4,
    associativity_rtol=5e-5,
    quantized_step_slack=1e-4,
    golden_scale=200.0,
)


@dataclass(frozen=True)
class TileLayout:
    """Static execution metadata of one programmed tiled matrix.

    Built once per :class:`repro.engine.kernels.MonteCarloTiledMatrix` and
    handed to :meth:`Backend.tiled_mvm` with every batch: the per-tile input-segment gather indices, output scatter
    offsets/widths, current-to-weight rescaling factors and the logical
    output width.
    """

    tile_rows: np.ndarray  # (T,) row-tile index feeding each tile
    out_starts: np.ndarray  # (T,) output-column offset of each tile
    out_lens: np.ndarray  # (T,) programmed output width of each tile
    scales: np.ndarray  # (T,) current→weight rescaling per tile
    span: float  # conductance span (g_max - g_min)
    out_dim: int  # logical output dimension


class Backend:
    """The numpy implementation of the execution surface at one precision.

    The execution engine calls exactly these operations, each computed with
    numpy at ``policy.dtype``.
    """

    def __init__(self, name: str, policy: PrecisionPolicy) -> None:
        self.name = name
        self.policy = policy

    # ------------------------------------------------------------------
    # Array allocation / casting
    # ------------------------------------------------------------------
    def asarray(self, values: np.ndarray) -> np.ndarray:
        """``values`` at the policy's compute dtype (no copy when already there)."""
        return np.asarray(values, dtype=self.policy.dtype)

    def zeros(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape, dtype=self.policy.dtype)

    def empty(self, shape: Tuple[int, ...]) -> np.ndarray:
        return np.empty(shape, dtype=self.policy.dtype)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """2-D matrix product at the policy's precision."""
        return np.matmul(self.asarray(a), self.asarray(b))

    def batched_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Stacked matmul over leading (broadcastable) batch axes.

        The engine's hot path: ``(R|1, T, batch, rows) @ (R, T, rows, cols)``
        over every trial and allocated tile.
        """
        return np.matmul(self.asarray(a), self.asarray(b))

    def einsum(self, subscripts: str, *operands: np.ndarray) -> np.ndarray:
        """General contraction at the policy's precision."""
        return np.einsum(subscripts, *(self.asarray(op) for op in operands))

    def svd(self, matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD ``(U, S, Vt)`` at the policy's precision."""
        return np.linalg.svd(self.asarray(matrix), full_matrices=False)

    def tiled_mvm(
        self,
        x: np.ndarray,
        diff: np.ndarray,
        layout: TileLayout,
        output_bits: Optional[int],
        quantize: Callable[[np.ndarray, int], np.ndarray],
    ) -> np.ndarray:
        """Execute every allocated tile of an MVM batch and scatter-add.

        ``x`` is the DAC-quantized, row-tile-sliced input stack —
        ``(row_tiles, batch, rows)`` when every trial shares its inputs,
        ``(trials, row_tiles, batch, rows)`` for per-trial input stacks — and
        ``diff`` the stacked differential conductances ``(trials, T, rows,
        cols)``; a single programming has ``trials == 1``.  Returns
        ``(trials, batch, out_dim)``.

        Gathers each tile's input segment, runs one batched matmul over all
        (trial, tile, vector) triples, rescales, ADC-quantizes, then
        scatter-adds the per-tile partial sums **serially in allocation
        order** — the reduction order of the per-tile oracle (see ENGINE.md,
        "Execution backends").
        """
        trials = diff.shape[0]
        batch = x.shape[-2]
        result = self.zeros((trials, batch, layout.out_dim))
        # Shared inputs broadcast over the trial axis; per-trial stacks
        # gather per trial: (trials|1, T, batch, rows) @ (trials, T, rows, cols).
        gathered = x[layout.tile_rows][None] if x.ndim == 3 else x[:, layout.tile_rows]
        outputs = self.batched_matmul(gathered, diff)
        # In-place div-then-mul keeps the rounding order of the per-tile path
        # (currents / span * scale) without allocating two temporaries.
        outputs /= layout.span
        outputs *= layout.scales[None, :, None, None]
        if output_bits is not None:
            # Columns beyond a tile's programmed width carry only noise on the
            # unprogrammed differential pairs; the per-tile ADC never sees
            # them, so zero them before quantization to keep the per-tile
            # max-abs identical.  (Without ADC quantization the scatter below
            # never reads them, so the mask is skipped.)
            valid = np.arange(diff.shape[-1])[None, :] < layout.out_lens[:, None]
            outputs = np.where(valid[None, :, None, :], outputs, 0.0)
            outputs = quantize(outputs, output_bits)
        # Scatter-add per-tile partial sums in allocation order (the same
        # accumulation order as the per-tile executor).
        for t in range(len(layout.tile_rows)):
            start = layout.out_starts[t]
            length = layout.out_lens[t]
            result[..., start : start + length] += outputs[..., t, :, :length]
        return result


    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} {self.name!r} ({self.policy.name})>"


#: The backends, one per precision, keyed by name.
_BACKENDS: Dict[str, Backend] = {
    name: Backend(name, policy)
    for name, policy in (("numpy64", FLOAT64_POLICY), ("numpy32", FLOAT32_POLICY))
}

#: Open using_backend scopes, innermost last.  Entries are unique token
#: objects paired with a backend; scope exit removes its own token (by
#: identity) rather than popping the top, so scopes that unwind out of push
#: order never corrupt each other.  The stack is deliberately process-wide,
#: not thread-local: ``repro --backend NAME serve`` opens its scope on the
#: main thread, and the server's HTTP handler and job threads must resolve
#: their default backend through it.  Jobs that open scopes of their own are
#: serialized across different backends by the job queue's admission gate
#: (:mod:`repro.server.queue`); any other concurrent scopes naming
#: *different* backends are unsupported (the innermost push wins globally)
#: — pass ``backend=`` explicitly instead.
_SCOPES: List[Tuple[object, Backend]] = []

#: Process-wide default installed by set_default_backend; sits under every
#: open scope and over ``$REPRO_BACKEND``.
_PROCESS_DEFAULT: Optional[str] = None


def backend_names() -> Tuple[str, ...]:
    """The backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> Backend:
    """The backend named ``name``; an unknown name lists the known ones."""
    backend = _BACKENDS.get(name)
    if backend is None:
        raise ValueError(
            f"unknown execution backend {name!r}; known backends: "
            f"{', '.join(backend_names())} (select one with --backend or ${ENV_VAR})"
        )
    return backend


def backend_policy(name: str) -> PrecisionPolicy:
    """The precision policy of the backend named ``name``."""
    return get_backend(name).policy


def registered_salt_tokens() -> Tuple[str, ...]:
    """Every distinct store-salt token a backend can write artifacts under."""
    return tuple(sorted({backend.policy.salt_token for backend in _BACKENDS.values()}))


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
def default_backend_name() -> str:
    """The active default: open scope > process default > ``$REPRO_BACKEND`` > ``numpy64``."""
    if _SCOPES:
        return _SCOPES[-1][1].name
    if _PROCESS_DEFAULT is not None:
        return _PROCESS_DEFAULT
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND_NAME


def set_default_backend(name: Optional[str]) -> None:
    """Install (or, with ``None``, clear) the process-wide default backend.

    Only the process default changes; any currently open
    :func:`using_backend` scope keeps both its override and its clean exit.
    """
    global _PROCESS_DEFAULT
    if name is not None:
        get_backend(name)  # validate eagerly
    _PROCESS_DEFAULT = name


def active_backend() -> Backend:
    """The backend every unqualified construction resolves to right now."""
    if _SCOPES:
        # A Backend instance passed to using_backend scopes as itself.
        return _SCOPES[-1][1]
    return get_backend(default_backend_name())


def active_precision() -> str:
    """The active backend's precision-policy name (cache-key component)."""
    return active_backend().policy.name


def active_salt_token() -> str:
    """The active backend's store-salt token ('' for float64)."""
    return active_backend().policy.salt_token


def resolve_backend(spec: Union[str, Backend, None]) -> Backend:
    """Resolve an explicit backend spec, falling back to the active default."""
    if spec is None:
        return active_backend()
    if isinstance(spec, Backend):
        return spec
    return get_backend(spec)


@contextmanager
def using_backend(spec: Union[str, Backend, None]) -> Iterator[Backend]:
    """Scope a default backend: constructions inside resolve to ``spec``.

    ``None`` is a no-op scope (the surrounding default stays active), which
    lets every harness accept ``backend=None`` and simply wrap its body.
    The scope is process-wide (see the ``_SCOPES`` note above).
    """
    if spec is None:
        yield active_backend()
        return
    backend = resolve_backend(spec)
    token = object()
    _SCOPES.append((token, backend))
    try:
        yield backend
    finally:
        # Remove this scope's own entry (wherever it sits) instead of
        # popping the top: out-of-order exits never corrupt other scopes.
        for index in range(len(_SCOPES) - 1, -1, -1):
            if _SCOPES[index][0] is token:
                del _SCOPES[index]
                break
