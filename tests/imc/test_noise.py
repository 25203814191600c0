"""Tests for the crossbar non-ideality (noise) models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.imc.noise import (
    NoiseModel,
    apply_conductance_variation,
    apply_ir_drop,
    apply_stuck_at_faults,
)


class TestConductanceVariation:
    def test_zero_sigma_is_identity(self, rng):
        g = rng.random((8, 8)) * 1e-4
        np.testing.assert_allclose(apply_conductance_variation(g, 0.0, rng), g)

    def test_multiplicative_and_positive(self, rng):
        g = rng.random((16, 16)) * 1e-4 + 1e-6
        noisy = apply_conductance_variation(g, 0.2, rng)
        assert np.all(noisy > 0)
        assert not np.allclose(noisy, g)

    def test_mean_ratio_near_one(self, rng):
        g = np.full((200, 200), 1e-5)
        noisy = apply_conductance_variation(g, 0.05, rng)
        assert np.mean(noisy / g) == pytest.approx(1.0, abs=0.01)

    def test_negative_sigma_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_conductance_variation(np.ones((2, 2)), -0.1, rng)

    @pytest.mark.parametrize("sigma", [0.05, 0.1, 0.3])
    def test_scaled_standard_normal_is_the_lognormal_draw(self, rng, sigma):
        """σ·standard_normal equals normal(0, σ) bit for bit and consumes the
        generator identically — what lets one memoized block serve every σ."""
        g = rng.random((64, 48)) * 1e-4
        scaled, direct = np.random.default_rng(5), np.random.default_rng(5)
        noisy = apply_conductance_variation(g, sigma, scaled)
        expected = g * np.exp(direct.normal(0.0, sigma, size=g.shape))
        np.testing.assert_array_equal(noisy, expected)
        assert scaled.bit_generator.state == direct.bit_generator.state


class TestStuckAtFaults:
    def test_zero_rate_identity(self, rng):
        g = rng.random((8, 8))
        np.testing.assert_allclose(apply_stuck_at_faults(g, 0.0, 0.0, 1.0, rng), g)

    def test_fault_rate_approximate(self, rng):
        g = np.full((300, 300), 0.5)
        faulty = apply_stuck_at_faults(g, 0.1, 0.0, 1.0, rng)
        changed = np.mean(faulty != 0.5)
        assert changed == pytest.approx(0.1, abs=0.02)

    def test_faulty_values_at_extremes(self, rng):
        g = np.full((100, 100), 0.5)
        faulty = apply_stuck_at_faults(g, 0.2, 0.1, 0.9, rng)
        assert set(np.unique(faulty)).issubset({0.1, 0.5, 0.9})

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            apply_stuck_at_faults(np.ones((2, 2)), 1.5, 0.0, 1.0, rng)


class TestIRDrop:
    def test_zero_severity_identity(self, rng):
        g = rng.random((8, 8))
        np.testing.assert_allclose(apply_ir_drop(g, 0.0), g)

    def test_far_rows_attenuated(self):
        g = np.ones((10, 4))
        dropped = apply_ir_drop(g, 0.3)
        assert dropped[0, 0] == pytest.approx(1.0)
        assert dropped[-1, 0] == pytest.approx(0.7)
        assert np.all(np.diff(dropped[:, 0]) <= 0)

    def test_single_row_unchanged(self):
        g = np.ones((1, 4))
        np.testing.assert_allclose(apply_ir_drop(g, 0.5), g)

    def test_invalid_severity(self):
        with pytest.raises(ValueError):
            apply_ir_drop(np.ones((2, 2)), 1.0)


class TestNoiseModel:
    def test_ideal_model_is_identity(self, rng):
        g = rng.random((8, 8))
        model = NoiseModel.ideal()
        assert model.is_ideal
        np.testing.assert_allclose(model.apply(g, 0.0, 1.0), g)

    def test_typical_model_perturbs(self, rng):
        g = rng.random((16, 16)) * 1e-4 + 1e-6
        model = NoiseModel.typical()
        assert not model.is_ideal
        noisy = model.apply(g, 1e-6, 1e-4)
        assert not np.allclose(noisy, g)
        assert np.all(noisy >= 0)

    def test_deterministic_given_seed(self, rng):
        g = rng.random((8, 8)) * 1e-4
        model = NoiseModel(conductance_sigma=0.1, seed=7)
        np.testing.assert_allclose(model.apply(g, 1e-6, 1e-4), model.apply(g, 1e-6, 1e-4))

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(conductance_sigma=-1)
        with pytest.raises(ValueError):
            NoiseModel(stuck_at_rate=2.0)
        with pytest.raises(ValueError):
            NoiseModel(ir_drop_severity=1.0)

    def test_higher_sigma_larger_perturbation(self, rng):
        g = rng.random((32, 32)) * 1e-4 + 1e-6
        small = NoiseModel(conductance_sigma=0.01, seed=1).apply(g, 1e-6, 1e-4)
        large = NoiseModel(conductance_sigma=0.3, seed=1).apply(g, 1e-6, 1e-4)
        assert np.linalg.norm(large - g) > np.linalg.norm(small - g)


def _dense_mask_oracle(model: NoiseModel, g: np.ndarray, g_min: float, g_max: float, rng) -> np.ndarray:
    """The stream contract written out with dense masks: log-normal variation
    from ``normal(0, σ)``, a fault and a stuck-on uniform per cell, IR drop,
    clipping."""
    out = g.copy()
    if model.conductance_sigma:
        out = g * np.exp(rng.normal(0.0, model.conductance_sigma, size=g.shape))
    if model.stuck_at_rate:
        faulty = rng.random(g.shape) < model.stuck_at_rate
        stuck_on = rng.random(g.shape) < 0.5
        out[faulty & stuck_on] = g_max
        out[faulty & ~stuck_on] = g_min
    if model.ir_drop_severity:
        rows = g.shape[0]
        out = out * (1.0 - model.ir_drop_severity * (np.arange(rows) / (rows - 1)))[:, None]
    return np.clip(out, 0.0, None)


class TestStreamContract:
    """``apply`` (sparse stuck-at cells) and ``apply_pair`` (memoized draws)
    reproduce the dense-mask formulation bit for bit."""

    @pytest.mark.parametrize(
        "model",
        [
            NoiseModel(conductance_sigma=0.2),
            NoiseModel(stuck_at_rate=0.04),
            NoiseModel(stuck_at_rate=0.5, ir_drop_severity=0.1),
            NoiseModel(conductance_sigma=0.1, stuck_at_rate=1.0),
            NoiseModel.typical(),
        ],
    )
    def test_apply_and_apply_pair_match_dense_masks(self, rng, model):
        g_pos, g_neg = rng.uniform(1e-6, 1e-4, (2, 24, 20))
        for seed in (0, 3):
            oracle = np.random.default_rng(seed)
            expected = [_dense_mask_oracle(model, g, 1e-6, 1e-4, oracle) for g in (g_pos, g_neg)]
            direct = np.random.default_rng(seed)
            applied = [model.apply(g, 1e-6, 1e-4, direct) for g in (g_pos, g_neg)]
            for _ in range(2):  # the second call reads the stream memo
                paired = model.apply_pair(g_pos, g_neg, 1e-6, 1e-4, seed)
                for got in (applied, paired):
                    for a, b in zip(got, expected):
                        np.testing.assert_array_equal(a, b)

    def test_g_min_above_g_max_rejected(self, rng):
        with pytest.raises(ValueError, match="g_min must not exceed g_max"):
            NoiseModel.typical().apply(rng.random((4, 4)), 1e-4, 1e-6)
