"""The per-process noise-stream memo is invisible in what a plan programs.

``NoiseModel.apply_pair`` serves each stream's draws from
``repro.imc.noise.stream_memo``, keyed by the stream (seed, block shape, and
which draws the model consumes) but not by ``σ``, the fault rate or the
conductances.  Whatever the memo holds, a plan must program exactly
what the per-tile :class:`~repro.imc.tiles.TiledMatrix` oracle programs —
which draws every stream directly through ``NoiseModel.apply``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

import repro.imc.noise as noise_module
from repro.engine.context import ExecutionContext
from repro.imc.noise import NoiseModel, stream_memo
from repro.mapping.geometry import ArrayDims

from .oracle import oracle_stages

SEED = 7
TRIALS = 2

#: Each model next to a same-seed "filler" with the same draw consumption
#: (σ ≠ 0, rate ≠ 0) but different σ / rate, so a memo the filler leaves
#: behind holds exactly the streams the model reads — except for a fault
#: rate above ``MEMO_FAULT_RATE``, which must bypass the stored draws.
MODELS = {
    "sigma_only": (NoiseModel(conductance_sigma=0.2), NoiseModel(conductance_sigma=0.05)),
    "faults_only": (NoiseModel(stuck_at_rate=0.05), NoiseModel(stuck_at_rate=0.01)),
    "faults_above_memo_bound": (
        NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.3),
        NoiseModel(conductance_sigma=0.2, stuck_at_rate=0.01),
    ),
    "sigma_and_faults": (
        NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.02, ir_drop_severity=0.05),
        NoiseModel(conductance_sigma=0.3, stuck_at_rate=0.001),
    ),
    "ir_drop_only": (NoiseModel(ir_drop_severity=0.08), NoiseModel(ir_drop_severity=0.02)),
    "ideal": (NoiseModel.ideal(), NoiseModel.typical()),
}


@pytest.fixture(autouse=True)
def empty_memo():
    stream_memo.clear()
    yield
    stream_memo.clear()


def _weight() -> np.ndarray:
    return np.random.default_rng(3).standard_normal((40, 70))


def _plan(noise: NoiseModel):
    """A two-stage low-rank plan over several tiles, ``TRIALS`` programmings."""
    ctx = ExecutionContext(array=ArrayDims.square(32), noise=noise, seed=SEED)
    return ctx.plan(_weight(), trials=TRIALS, rank=24)


def _oracle_diff(tiles) -> np.ndarray:
    """Differential conductances of a per-tile oracle, in allocation order."""
    return np.stack([array._g_pos - array._g_neg for array in tiles._tiles.values()])


def _assert_matches_oracle(plan) -> None:
    for trial in range(TRIALS):
        for stage, oracle in zip(plan.stages, oracle_stages(plan, trial)):
            np.testing.assert_array_equal(stage._diff[trial], _oracle_diff(oracle))
            np.testing.assert_array_equal(stage.stored_matrix(trial), oracle.stored_matrix())


def _diffs(plan):
    return [stage._diff.copy() for stage in plan.stages]


class TestTransparency:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_empty_and_prefilled_memo_match_the_oracle(self, name):
        model, filler = MODELS[name]
        empty = _plan(model)
        _assert_matches_oracle(empty)

        stream_memo.clear()
        _plan(filler)
        entries = len(stream_memo)
        filled = _plan(model)
        _assert_matches_oracle(filled)
        for a, b in zip(_diffs(empty), _diffs(filled)):
            np.testing.assert_array_equal(a, b)
        # The model read the filler's streams (or drew directly) instead of
        # adding its own; only models drawing nothing leave the memo empty.
        assert len(stream_memo) == entries
        assert (entries > 0) == bool(filler.conductance_sigma or filler.stuck_at_rate)

    @pytest.mark.parametrize(
        "first,second",
        [
            (NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.02), NoiseModel(conductance_sigma=0.1)),
            (NoiseModel(conductance_sigma=0.1), NoiseModel(conductance_sigma=0.1, stuck_at_rate=0.02)),
        ],
    )
    def test_other_consumption_pattern_is_never_served(self, first, second):
        _plan(first)
        entries = len(stream_memo)
        plan = _plan(second)
        _assert_matches_oracle(plan)
        # Same seeds and shapes, different draw order: separate entries.
        assert len(stream_memo) == 2 * entries

    @pytest.mark.parametrize("rate", [0.0, 0.05, 0.2])
    def test_apply_pair_equals_two_applies_on_one_generator(self, rate):
        model = NoiseModel(conductance_sigma=0.15, stuck_at_rate=rate, ir_drop_severity=0.03)
        rng = np.random.default_rng(0)
        g_pos, g_neg = rng.uniform(1e-6, 1e-4, (2, 16, 8))
        direct = np.random.default_rng(99)
        expected = (model.apply(g_pos, 1e-6, 1e-4, direct), model.apply(g_neg, 1e-6, 1e-4, direct))
        for _ in range(2):  # a miss, then a hit
            got = model.apply_pair(g_pos, g_neg, 1e-6, 1e-4, 99)
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a, b)


class TestConcurrencyAndBound:
    def test_threads_programming_at_once_match_serial(self):
        """More threads than cores, switching every microsecond, program the
        same plans from an empty memo: every result is the serial one and
        the memo's byte count still matches its entries."""
        model = NoiseModel.typical()
        serial = _diffs(_plan(model))
        streams, nbytes = len(stream_memo), stream_memo.nbytes
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                stream_memo.clear()
                barrier = threading.Barrier(4)
                results, errors = [None] * 4, []

                def program(slot):
                    try:
                        barrier.wait(timeout=10)
                        results[slot] = _diffs(_plan(model))
                    except Exception as exc:  # surfaced below
                        errors.append(exc)

                threads = [threading.Thread(target=program, args=(slot,)) for slot in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert not errors
                for diffs in results:
                    for a, b in zip(diffs, serial):
                        np.testing.assert_array_equal(a, b)
                assert len(stream_memo) == streams
                assert stream_memo.nbytes == nbytes
        finally:
            sys.setswitchinterval(interval)

    def test_filling_past_the_bound_evicts_and_programs_identically(self, monkeypatch):
        model = NoiseModel.typical()
        unbounded = _diffs(_plan(model))
        entries, nbytes = len(stream_memo), stream_memo.nbytes
        assert entries > 3
        stream_memo.clear()
        bound = nbytes // 3
        monkeypatch.setattr(noise_module, "STREAM_MEMO_BYTES", bound)
        for _ in range(2):  # filling, then reading a memo that lost entries
            plan = _plan(model)
            for a, b in zip(_diffs(plan), unbounded):
                np.testing.assert_array_equal(a, b)
            assert 0 < stream_memo.nbytes <= bound
            assert 0 < len(stream_memo) < entries
        assert stream_memo.evictions > 0
        _assert_matches_oracle(plan)
