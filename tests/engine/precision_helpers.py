"""Precision-policy-aware assertion helpers for the engine equivalence suites.

The equivalence suites run in CI under both execution backends
(``REPRO_BACKEND=numpy64|numpy32``).  Everything *deterministic*
(programmed conductances, stored matrices, tile counts, energies) stays
bit-identical under every backend — the precision policy governs execution
arithmetic only — so those assertions need no relaxation.  Analog *output*
comparisons against the float64 oracle use the active policy's documented
tolerance envelope (see :class:`repro.backend.PrecisionPolicy` and ENGINE.md):
BLAS associativity bounds for the bit-identical float64 reference, the
float32 envelope in numpy32 tolerance mode.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active_backend


def active_policy():
    return active_backend().policy


def assert_outputs_match(
    actual: np.ndarray, reference: np.ndarray, slack: float = 1.0
) -> None:
    """Analog outputs agree within the active precision policy's envelope.

    ``slack`` widens the envelope for comparisons that chain more reductions
    than a single MVM (e.g. the two-stage low-rank pipeline).
    """
    policy = active_policy()
    scale = float(np.max(np.abs(reference))) or 1.0
    np.testing.assert_allclose(
        np.asarray(actual, dtype=np.float64),
        np.asarray(reference, dtype=np.float64),
        rtol=policy.output_rtol * slack,
        atol=policy.output_atol * scale * slack,
    )


def assert_quantized_outputs_match(
    actual: np.ndarray, reference: np.ndarray, output_bits: int
) -> None:
    """ADC-quantized outputs: ≤ one ADC step anywhere, working-precision nearly everywhere.

    A value landing exactly on an ADC rounding tie may flip by one
    quantization step (under float32 that tie band widens to the policy's
    ``quantized_step_slack``); away from ties the outputs must agree to the
    policy's associativity level on at least 99% of entries.
    """
    policy = active_policy()
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    diff = np.abs(actual - reference)
    scale = float(np.abs(reference).max())
    step = scale / (2**output_bits - 1) + 1e-12
    assert diff.max() <= step * (1.0 + policy.quantized_step_slack)
    assert (diff <= scale * policy.associativity_rtol).mean() > 0.99
