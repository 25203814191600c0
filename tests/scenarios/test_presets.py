"""Tests for the hardware scenario presets and registry."""

from __future__ import annotations

import pytest

from repro.imc.peripherals import CellSpec, PeripheralSuite
from repro.mapping.geometry import ArrayDims
from repro.scenarios import (
    FAULTY,
    IDEAL,
    TYPICAL_RRAM,
    WORST_CASE_RRAM,
    HardwareScenario,
    get_scenario,
    register_scenario,
    scenario_names,
    scenario_registry,
)
from repro.scenarios.presets import _REGISTRY


class TestRegistry:
    def test_all_presets_registered_in_order(self):
        assert scenario_names() == (
            "ideal",
            "typical_rram",
            "worst_case_rram",
            "pcm_like",
            "faulty",
        )

    def test_get_scenario_roundtrip(self):
        for name in scenario_names():
            assert get_scenario(name).name == name

    def test_unknown_scenario_raises_with_known_names(self):
        with pytest.raises(KeyError, match="typical_rram"):
            get_scenario("does_not_exist")

    def test_registry_is_a_copy(self):
        registry = scenario_registry()
        registry.pop("ideal")
        assert "ideal" in scenario_names()

    def test_register_custom_scenario(self):
        custom = HardwareScenario(name="_test_custom", description="", conductance_sigma=0.2)
        try:
            register_scenario(custom)
            assert get_scenario("_test_custom") is custom
        finally:
            _REGISTRY.pop("_test_custom", None)


class TestPresetContents:
    def test_ideal_is_ideal(self):
        assert IDEAL.is_ideal
        assert IDEAL.noise_model().is_ideal
        assert IDEAL.input_bits is None and IDEAL.output_bits is None

    def test_noisy_presets_are_not_ideal(self):
        for scenario in (TYPICAL_RRAM, WORST_CASE_RRAM, FAULTY):
            assert not scenario.is_ideal

    def test_severity_ordering(self):
        """The worst-case corner dominates the typical corner on every axis."""
        assert WORST_CASE_RRAM.conductance_sigma > TYPICAL_RRAM.conductance_sigma
        assert WORST_CASE_RRAM.stuck_at_rate > TYPICAL_RRAM.stuck_at_rate
        assert WORST_CASE_RRAM.ir_drop_severity > TYPICAL_RRAM.ir_drop_severity
        assert WORST_CASE_RRAM.conductance_levels < TYPICAL_RRAM.conductance_levels
        assert FAULTY.stuck_at_rate > TYPICAL_RRAM.stuck_at_rate

    def test_noise_model_carries_parameters(self):
        model = TYPICAL_RRAM.noise_model(seed=7)
        assert model.conductance_sigma == TYPICAL_RRAM.conductance_sigma
        assert model.stuck_at_rate == TYPICAL_RRAM.stuck_at_rate
        assert model.ir_drop_severity == TYPICAL_RRAM.ir_drop_severity
        assert model.seed == 7


class TestScenarioBuilders:
    def test_cell_overrides_resolution_and_range_only(self):
        base = CellSpec(read_energy_pj=0.5, write_energy_pj=3.0)
        cell = get_scenario("pcm_like").cell(base)
        assert cell.conductance_levels == 32
        assert cell.g_min == pytest.approx(5e-6)
        assert cell.g_max == pytest.approx(8e-5)
        assert cell.read_energy_pj == 0.5  # energies keep the base values
        assert cell.write_energy_pj == 3.0

    def test_peripherals_substitute_cell(self):
        suite = TYPICAL_RRAM.peripherals()
        assert suite.cell.conductance_levels == TYPICAL_RRAM.conductance_levels
        assert suite.adc == PeripheralSuite().adc  # other components untouched

    def test_context_wiring(self):
        ctx = WORST_CASE_RRAM.context(ArrayDims.square(64), seed=3)
        assert ctx.seed == 3
        assert ctx.input_bits == WORST_CASE_RRAM.input_bits
        assert ctx.output_bits == WORST_CASE_RRAM.output_bits
        assert ctx.noise == WORST_CASE_RRAM.noise_model(3)
        assert ctx.peripherals.cell.conductance_levels == 16

    def test_context_runs_a_plan(self, rng):
        ctx = TYPICAL_RRAM.context(ArrayDims.square(32), seed=1)
        weight = rng.standard_normal((16, 32))
        result = ctx.plan(weight, trials=2).run(rng.standard_normal((4, 32)))
        assert result.outputs.shape == (2, 4, 16)
        assert result.mean_relative_error > 0

    def test_error_ordering_across_corners(self, rng):
        """Worse corners produce larger output errors on the same layer."""
        weight = rng.standard_normal((24, 48))
        inputs = rng.standard_normal((8, 48))
        errors = {}
        for name in ("ideal", "typical_rram", "worst_case_rram"):
            ctx = get_scenario(name).context(ArrayDims.square(32), seed=2)
            errors[name] = ctx.plan(weight, trials=3).run(inputs).mean_relative_error
        assert errors["ideal"] < errors["typical_rram"] < errors["worst_case_rram"]


class TestValidation:
    def test_invalid_noise_parameters_rejected(self):
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", conductance_sigma=-0.1)
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", stuck_at_rate=1.5)
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", ir_drop_severity=1.0)

    def test_invalid_cell_parameters_rejected(self):
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", conductance_levels=1)
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", g_min=1e-4, g_max=1e-6)

    def test_invalid_converter_bits_rejected(self):
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", input_bits=0)
        with pytest.raises(ValueError):
            HardwareScenario(name="bad", description="", output_bits=-2)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            HardwareScenario(name="", description="x")
