"""Crossbar non-ideality (noise) models.

Programming a weight onto an RRAM cell and reading it back is not exact: the
paper's hardware substrate (and any NeuroSIM-style evaluation) is subject to
conductance variation, stuck-at faults and IR drop along the bit lines.  The
noise model here perturbs programmed conductance matrices so the simulator can
quantify how compressed mappings behave on imperfect hardware — the "crossbar
noise sim" code path of the reproduction plan.

Monte-Carlo sweeps program the same seeded streams over and over (every
noisy scenario, mapping and experiment draws stream ``seed + t·stride + i``
for trial ``t``, tile ``i``), so :meth:`NoiseModel.apply_pair` serves the
draws of each stream from a per-process memo (:data:`stream_memo`) instead
of redrawing them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "NoiseModel",
    "StreamMemo",
    "STREAM_MEMO_BYTES",
    "MEMO_FAULT_RATE",
    "stream_memo",
    "apply_conductance_variation",
    "apply_stuck_at_faults",
    "apply_ir_drop",
]

#: Byte bound of :data:`stream_memo`.  A default ``repro report`` keeps
#: 22.6 MiB of draws (``--trials 16``: 45.1 MiB); beyond the bound the least
#: recently used streams are evicted (and redrawn, identically, when next
#: needed).
STREAM_MEMO_BYTES = 48 << 20

#: Highest stuck-at rate the memo serves.  It keeps, per conductance block,
#: only the cells whose fault uniform falls below this bound (1/16 of them on
#: average) — enough for every rate up to it, including every registered
#: scenario's (≤ 5 %).  Models with a higher rate draw directly.
MEMO_FAULT_RATE = 1.0 / 16

#: Stuck-at draws of one block: the flat indices of the cells whose fault
#: uniform is below a bound, with their fault and stuck-on uniforms.
_FaultDraws = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: All draws of one block: the standard-normal variation block (``None``
#: when σ = 0) and the stuck-at draws (``None`` when the rate is 0).
_BlockDraws = Tuple[Optional[np.ndarray], Optional[_FaultDraws]]
#: A stream's identity: seed, block shape, and which draws the model consumes.
_StreamKey = Tuple[int, Tuple[int, ...], bool, bool]


def apply_conductance_variation(
    conductances: np.ndarray, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Multiplicative log-normal device-to-device variation.

    ``sigma`` is the standard deviation of the underlying normal distribution;
    a typical RRAM characterization uses values between 0.05 and 0.3.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return conductances.copy()
    return _vary(conductances, sigma, rng.standard_normal(conductances.shape))


def _vary(conductances: np.ndarray, sigma: float, normal: np.ndarray) -> np.ndarray:
    """``conductances · exp(σ·z)`` for a standard-normal block ``z``.

    numpy computes ``Generator.normal(0, σ)`` as ``0 + σ·standard_normal``
    from the same generator output, so this is bit for bit the log-normal
    draw — which is what lets one memoized ``z`` serve every ``σ``.
    """
    return conductances * np.exp(sigma * normal)


def _draw_faults(rng: np.random.Generator, shape: Tuple[int, ...], bound: float) -> _FaultDraws:
    """The stuck-at draws: a fault uniform per cell, then a stuck-on uniform
    per cell, kept for the cells whose fault uniform is below ``bound``."""
    fault = rng.random(shape).reshape(-1)
    stuck_on = rng.random(shape).reshape(-1)
    cells = np.flatnonzero(fault < bound)
    return cells, fault[cells], stuck_on[cells]


def _stick(
    out: np.ndarray,
    faults: _FaultDraws,
    rate: float,
    g_min: float,
    g_max: float,
    stuck_on_fraction: float = 0.5,
) -> None:
    """Force, in place, the cells whose fault uniform is below ``rate`` to
    ``g_max`` (stuck-on uniform below ``stuck_on_fraction``) or ``g_min``.
    ``faults`` must hold every such cell (its bound at least ``rate``)."""
    cells, fault, stuck_on = faults
    faulty = fault < rate
    on = stuck_on < stuck_on_fraction
    flat = out.reshape(-1)
    flat[cells[faulty & on]] = g_max
    flat[cells[faulty & ~on]] = g_min


def apply_stuck_at_faults(
    conductances: np.ndarray,
    rate: float,
    g_min: float,
    g_max: float,
    rng: np.random.Generator,
    stuck_on_fraction: float = 0.5,
) -> np.ndarray:
    """Randomly force a fraction of cells to their extreme conductance values.

    Half of the faulty cells (by default) are stuck at ``g_max`` (SA1) and the
    rest at ``g_min`` (SA0), matching common fault characterizations.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate}")
    if not 0.0 <= stuck_on_fraction <= 1.0:
        raise ValueError(f"stuck_on_fraction must be in [0, 1], got {stuck_on_fraction}")
    if g_min > g_max:
        raise ValueError(f"g_min must not exceed g_max, got {g_min} > {g_max}")
    out = conductances.copy()
    if rate > 0.0:
        faults = _draw_faults(rng, conductances.shape, rate)
        _stick(out, faults, rate, g_min, g_max, stuck_on_fraction)
    return out


def apply_ir_drop(conductances: np.ndarray, severity: float) -> np.ndarray:
    """First-order IR-drop model: rows further from the driver see attenuated reads.

    The attenuation grows linearly with row index up to ``severity`` at the far
    end of the array (a light-weight stand-in for a full SPICE IR-drop solve,
    sufficient to study relative robustness of mappings).
    """
    if not 0.0 <= severity < 1.0:
        raise ValueError(f"severity must be in [0, 1), got {severity}")
    if severity == 0.0:
        return conductances.copy()
    rows = conductances.shape[0]
    if rows == 1:
        return conductances.copy()
    attenuation = 1.0 - severity * (np.arange(rows) / (rows - 1))
    return conductances * attenuation[:, None]


class StreamMemo:
    """Process-wide LRU of the draws each noise stream feeds :meth:`NoiseModel.apply_pair`.

    Bounded by the bytes of the stored arrays (:data:`STREAM_MEMO_BYTES`,
    read at every insertion).  Thread-safe: the server's job threads share
    it, lookups and updates hold one lock, the stored arrays are read-only
    and every caller draws from its own generator.  Two threads missing the
    same stream both draw it — identically — and the first insertion wins.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[_StreamKey, Tuple[_BlockDraws, ...]]" = OrderedDict()
        self._lock = threading.Lock()
        self.nbytes = 0
        self.evictions = 0

    def get(self, key: _StreamKey) -> Optional[Tuple[_BlockDraws, ...]]:
        with self._lock:
            draws = self._entries.get(key)
            if draws is not None:
                self._entries.move_to_end(key)
            return draws

    def put(self, key: _StreamKey, draws: Tuple[_BlockDraws, ...]) -> None:
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = draws
            self.nbytes += _draws_bytes(draws)
            while self.nbytes > STREAM_MEMO_BYTES:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= _draws_bytes(evicted)
                self.evictions += 1

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


def _arrays(draws: Tuple[_BlockDraws, ...]):
    for normal, faults in draws:
        if normal is not None:
            yield normal
        if faults is not None:
            yield from faults


def _draws_bytes(draws: Tuple[_BlockDraws, ...]) -> int:
    return sum(array.nbytes for array in _arrays(draws))


#: The memo :meth:`NoiseModel.apply_pair` draws through.
stream_memo = StreamMemo()


@dataclass(frozen=True)
class NoiseModel:
    """Composite non-ideality model applied to programmed conductances.

    Attributes
    ----------
    conductance_sigma:
        Log-normal device variation sigma (0 disables it).
    stuck_at_rate:
        Probability of a cell being stuck at an extreme conductance.
    ir_drop_severity:
        Linear attenuation at the far end of the bit lines (0 disables it).
    seed:
        Seed of the internal random generator, for reproducibility.
    """

    conductance_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    ir_drop_severity: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.conductance_sigma < 0:
            raise ValueError("conductance_sigma must be non-negative")
        if not 0.0 <= self.stuck_at_rate <= 1.0:
            raise ValueError("stuck_at_rate must be in [0, 1]")
        if not 0.0 <= self.ir_drop_severity < 1.0:
            raise ValueError("ir_drop_severity must be in [0, 1)")

    @property
    def is_ideal(self) -> bool:
        return (
            self.conductance_sigma == 0.0
            and self.stuck_at_rate == 0.0
            and self.ir_drop_severity == 0.0
        )

    def _draw(self, rng: np.random.Generator, shape: Tuple[int, ...], fault_bound: float) -> _BlockDraws:
        """The noise-stream contract for one conductance block: a standard-
        normal block for the log-normal variation (when σ > 0), then the
        stuck-at uniforms (when the fault rate > 0), kept below ``fault_bound``."""
        normal = rng.standard_normal(shape) if self.conductance_sigma else None
        faults = _draw_faults(rng, shape, fault_bound) if self.stuck_at_rate else None
        return normal, faults

    def apply(
        self,
        conductances: np.ndarray,
        g_min: float,
        g_max: float,
        rng: Optional[np.random.Generator] = None,
        draws: Optional[_BlockDraws] = None,
    ) -> np.ndarray:
        """Return a perturbed copy of the conductance matrix.

        Draws from ``rng`` (by default a generator seeded with :attr:`seed`)
        in the order of the noise-stream contract: one standard-normal block
        for the log-normal variation, then one fault and one stuck-on
        uniform per cell for the stuck-at faults, each only when enabled.
        ``draws`` are those draws when the caller already holds them
        (:meth:`apply_pair` serves them from :data:`stream_memo`); ``rng``
        is then unused.
        """
        if self.is_ideal:
            return conductances.copy()
        if g_min > g_max:
            raise ValueError(f"g_min must not exceed g_max, got {g_min} > {g_max}")
        if draws is None:
            gen = rng if rng is not None else np.random.default_rng(self.seed)
            draws = self._draw(gen, conductances.shape, self.stuck_at_rate)
        normal, faults = draws
        if normal is not None:
            out = _vary(conductances, self.conductance_sigma, normal)
        else:
            out = conductances.copy()
        if faults is not None:
            _stick(out, faults, self.stuck_at_rate, g_min, g_max)
        out = apply_ir_drop(out, self.ir_drop_severity)
        return np.clip(out, 0.0, None, out=out)

    def apply_pair(
        self, g_pos: np.ndarray, g_neg: np.ndarray, g_min: float, g_max: float, seed: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Perturb a differential pair from the stream ``default_rng(seed)``.

        Bit for bit two :meth:`apply` calls sharing that generator,
        ``g_pos`` first — the order of the per-tile ``CrossbarArray``.  The
        draws come from :data:`stream_memo`, keyed by the stream's identity:
        ``seed``, the block shape and which draws the model consumes
        (σ > 0, fault rate > 0).  Neither σ, the rate, ``g_min``/``g_max``
        nor the conductances enter the key, so models that differ only in
        those share the draws.  Models that draw nothing (ideal, IR drop
        only) or whose rate exceeds :data:`MEMO_FAULT_RATE`, which the
        stored fault cells do not cover, draw directly.
        """
        draws_nothing = not self.conductance_sigma and not self.stuck_at_rate
        if draws_nothing or self.stuck_at_rate > MEMO_FAULT_RATE:
            # Nothing to reuse, or more faults than the stored cells cover.
            rng = np.random.default_rng(seed)
            return self.apply(g_pos, g_min, g_max, rng), self.apply(g_neg, g_min, g_max, rng)
        key = (seed, g_pos.shape, self.conductance_sigma != 0.0, self.stuck_at_rate != 0.0)
        draws = stream_memo.get(key)
        if draws is None:
            rng = np.random.default_rng(seed)
            draws = tuple(self._draw(rng, g.shape, MEMO_FAULT_RATE) for g in (g_pos, g_neg))
            for array in _arrays(draws):
                array.flags.writeable = False
            stream_memo.put(key, draws)
        return (
            self.apply(g_pos, g_min, g_max, draws=draws[0]),
            self.apply(g_neg, g_min, g_max, draws=draws[1]),
        )

    def with_seed(self, seed: int) -> "NoiseModel":
        """The same non-ideality parameters with a different RNG seed.

        The seed only matters for direct :meth:`apply` calls without a
        generator: the tile kernels of :mod:`repro.engine.kernels` draw from
        per-tile streams (:meth:`apply_pair`) seeded by the plan, never by
        the model.
        """
        return replace(self, seed=seed)

    @staticmethod
    def ideal() -> "NoiseModel":
        return NoiseModel()

    @staticmethod
    def typical() -> "NoiseModel":
        """A moderately noisy RRAM corner used by the robustness ablation."""
        return NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.001, ir_drop_severity=0.02)
