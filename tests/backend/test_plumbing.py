"""End-to-end backend plumbing: CLI, engine contexts, SVD cache, store salting.

These tests pin the satellite contract of the backend subsystem: the CLI's
``--backend`` flag and ``$REPRO_BACKEND`` reach the kernels, an unknown name
fails with the registered listing, and the float32 precision policy salts its
store fingerprints so numpy64 and numpy32 artifacts coexist in one store
without ever colliding (and ``gc`` under one precision keeps the other's).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import get_backend, set_default_backend, using_backend
from repro.cli import main
from repro.engine.cache import DecompositionCache
from repro.engine.context import ExecutionContext
from repro.engine.sweep import SweepCache, map_sweep
from repro.imc.noise import NoiseModel
from repro.store import ExperimentStore, active_salt, code_version_salt, experiment_fingerprint


@pytest.fixture(autouse=True)
def _clean_default():
    set_default_backend(None)
    yield
    set_default_backend(None)


class TestCliBackendSelection:
    def test_backend_flag_e2e(self, capsys):
        """`--backend threaded` runs a full subcommand through the flag."""
        exit_code = main(["--backend", "threaded", "fig8"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Fig. 8" in captured

    def test_backend_flag_numpy32_e2e(self, capsys):
        exit_code = main(["--backend", "numpy32", "fig8"])
        assert exit_code == 0
        assert "Fig. 8" in capsys.readouterr().out

    def test_env_backend_e2e(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "threaded")
        assert main(["fig8"]) == 0
        capsys.readouterr()

    def test_unknown_backend_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--backend", "gpu", "fig8"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert "unknown execution backend 'gpu'" in message
        assert "numpy64" in message and "numpy32" in message and "threaded" in message

    def test_unknown_env_backend_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "quantum")
        with pytest.raises(SystemExit) as excinfo:
            main(["fig8"])
        assert excinfo.value.code == 2
        assert "quantum" in capsys.readouterr().err

    def test_flag_beats_env(self, capsys, monkeypatch):
        """An explicit --backend wins even over a bogus $REPRO_BACKEND."""
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        assert main(["--backend", "numpy64", "fig8"]) == 0
        capsys.readouterr()


class TestContextPlumbing:
    def test_context_resolves_active_default(self, small_array):
        with using_backend("numpy32"):
            ctx = ExecutionContext(array=small_array)
        assert ctx.backend.name == "numpy32"

    def test_explicit_backend_beats_ambient(self, small_array):
        with using_backend("numpy32"):
            ctx = ExecutionContext(array=small_array, backend="threaded")
        assert ctx.backend.name == "threaded"

    def test_float32_plan_outputs(self, rng, small_array):
        weight = rng.standard_normal((16, 40))
        inputs = rng.standard_normal((4, 40))
        ref = ExecutionContext(array=small_array, noise=NoiseModel.typical(), seed=2)
        f32 = ExecutionContext(
            array=small_array, noise=NoiseModel.typical(), seed=2, backend="numpy32"
        )
        out_ref = ref.plan(weight).run(inputs)
        out_f32 = f32.plan(weight).run(inputs)
        assert out_f32.outputs.dtype == np.float32
        policy = get_backend("numpy32").policy
        scale = float(np.abs(out_ref.outputs).max())
        np.testing.assert_allclose(
            np.float64(out_f32.outputs),
            out_ref.outputs,
            rtol=policy.output_rtol,
            atol=policy.output_atol * scale,
        )
        # The exact software reference never degrades to float32.
        assert out_f32.exact.dtype == np.float64
        np.testing.assert_array_equal(out_f32.exact, out_ref.exact)

    def test_programming_stays_bit_identical_under_float32(self, rng, small_array):
        """The precision policy governs execution only, never programming."""
        matrix = rng.standard_normal((20, 40))
        ref = ExecutionContext(array=small_array, noise=NoiseModel.typical(), seed=5)
        f32 = ExecutionContext(
            array=small_array, noise=NoiseModel.typical(), seed=5, backend="numpy32"
        )
        np.testing.assert_array_equal(
            ref.plan(matrix).stages[0].stored_matrix(),
            f32.plan(matrix).stages[0].stored_matrix(),
        )


class TestSvdCachePrecision:
    def test_precisions_have_distinct_cache_entries(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((12, 16))
        cache.svd(matrix, backend="numpy64")
        cache.svd(matrix, backend="numpy32")
        assert len(cache) == 2 and cache.misses == 2

    def test_bit_identical_family_shares_entries(self, rng):
        cache = DecompositionCache()
        matrix = rng.standard_normal((12, 16))
        cache.svd(matrix, backend="numpy64")
        cache.svd(matrix, backend="threaded")
        assert len(cache) == 1 and cache.hits == 1

    def test_float32_factors_have_float32_dtype(self, rng):
        u, s, vt = DecompositionCache().svd(rng.standard_normal((8, 8)), backend="numpy32")
        assert u.dtype == s.dtype == vt.dtype == np.float32


class TestFingerprintSaltSeparation:
    CONFIG = {"network": "resnet20", "groups": 4}

    def test_numpy32_salts_differently(self):
        with using_backend("numpy64"):
            fp64 = experiment_fingerprint("kind", self.CONFIG)
            salt64 = active_salt()
        with using_backend("numpy32"):
            fp32 = experiment_fingerprint("kind", self.CONFIG)
            salt32 = active_salt()
        assert fp64 != fp32
        assert salt64 == code_version_salt()
        assert salt32 == f"{code_version_salt()}+float32"

    def test_threaded_shares_float64_fingerprints(self):
        with using_backend("numpy64"):
            fp64 = experiment_fingerprint("kind", self.CONFIG)
        with using_backend("threaded"):
            fpth = experiment_fingerprint("kind", self.CONFIG)
        assert fp64 == fpth

    def test_store_artifacts_coexist_and_survive_gc(self, tmp_path):
        """numpy64 and numpy32 cells live side by side; gc keeps both."""
        store = ExperimentStore(tmp_path / "store")
        calls = []

        def cell(value: int) -> int:
            calls.append(value)
            return value * 10

        def run(backend_name: str):
            with using_backend(backend_name):
                cache = SweepCache(store, "demo/cell", lambda v: {"v": v}, int)
                return map_sweep(cell, [1, 2], cache=cache)

        assert run("numpy64") == [10, 20]
        assert run("numpy32") == [10, 20]
        assert len(calls) == 4, "different precisions must not share artifacts"
        # Warm re-runs hit their own precision's artifacts.
        assert run("numpy64") == [10, 20] and run("numpy32") == [10, 20]
        assert len(calls) == 4
        # gc under the float64 default keeps the float32 half (and vice versa).
        with using_backend("numpy64"):
            stats = store.gc()
        assert stats.removed == 0 and stats.kept == 4
        entries = store.ls()
        assert len(entries) == 4 and not any(entry.stale for entry in entries)

    def test_salt_env_override_still_applies(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_SALT", "custom")
        with using_backend("numpy32"):
            assert active_salt() == "custom+float32"
