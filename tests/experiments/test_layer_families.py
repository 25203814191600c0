"""Tests for the modern-layer mapping-efficiency experiment."""

from __future__ import annotations

import json

import pytest

import repro.experiments  # noqa: F401 — populates the experiment registry
from repro.engine.sweep import experiment_registry, to_jsonable
from repro.experiments.layer_families import (
    FAMILIES,
    FAMILY_NETWORKS,
    LayerFamilyPoint,
    _family_point,
    _layer_families_cell_config,
    _layer_families_plan,
    format_layer_families,
    representative_family_layer,
    run_layer_families,
)
from repro.mapping.geometry import GroupedConvGeometry, layer_family
from repro.store import ExperimentStore


@pytest.fixture(scope="module")
def small_result():
    return run_layer_families(
        scenarios=("ideal", "typical_rram"),
        trials=3,
        batch=8,
    )


class TestRunLayerFamilies:
    def test_point_grid_is_complete(self, small_result):
        assert len(small_result.points) == len(FAMILIES) * 2
        for family in FAMILIES:
            for scenario in ("ideal", "typical_rram"):
                point = small_result.point(family, scenario)
                assert point.trials == 3
                assert point.network == FAMILY_NETWORKS[family]
                assert point.allocated_tiles > 0

    def test_unknown_family_fails_fast(self):
        with pytest.raises(ValueError, match="unknown layer family"):
            run_layer_families(families=("squeeze",), trials=1)

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(KeyError):
            run_layer_families(scenarios=("nope",), trials=1)

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            run_layer_families(trials=0)

    def test_representative_layers_belong_to_their_family(self):
        for family in FAMILIES:
            geometry = representative_family_layer(family)
            assert layer_family(geometry) == family
            assert geometry.name

    def test_closed_form_tile_prediction_holds(self, small_result):
        """Allocated tiles equal the block-diagonal closed form, per family."""
        for point in small_result.points:
            assert point.allocated_tiles == point.predicted_tiles
            assert point.allocated_tiles <= point.dense_tiles
            assert point.tile_savings == pytest.approx(
                point.dense_tiles / point.allocated_tiles
            )

    def test_block_diagonal_families_save_tiles(self, small_result):
        for family in ("grouped", "depthwise"):
            point = small_result.point(family, "ideal")
            assert point.groups > 1
            assert point.tile_savings >= 2.0
        for family in ("conv", "attention"):
            assert small_result.point(family, "ideal").tile_savings == pytest.approx(1.0)

    def test_depthwise_utilization_is_poor(self, small_result):
        """The structural punchline: depthwise blocks leave tiles nearly idle."""
        depthwise = small_result.point("depthwise", "ideal")
        grouped = small_result.point("grouped", "ideal")
        assert depthwise.cell_utilization < 0.05
        assert depthwise.cell_utilization < grouped.cell_utilization
        assert 0.0 < small_result.point("conv", "ideal").cell_utilization <= 1.0

    def test_noisy_scenarios_degrade(self, small_result):
        for family in FAMILIES:
            ideal = small_result.point(family, "ideal")
            noisy = small_result.point(family, "typical_rram")
            assert noisy.mean_error > ideal.mean_error
            assert noisy.worst_error >= noisy.mean_error
            assert ideal.std_error == pytest.approx(0.0, abs=1e-12)

    def test_energy_is_scenario_invariant(self, small_result):
        for family in FAMILIES:
            energies = {
                small_result.point(family, s).energy_pj_per_mvm
                for s in ("ideal", "typical_rram")
            }
            assert len(energies) == 1

    def test_grouped_weight_layout_matches_geometry(self):
        from repro.experiments.layer_families import _family_weight

        geometry = representative_family_layer("grouped")
        assert isinstance(geometry, GroupedConvGeometry)
        weight = _family_weight(geometry, seed=0)
        assert weight.shape == (
            geometry.out_channels,
            geometry.group_in_channels,
            geometry.kernel_h,
            geometry.kernel_w,
        )

    def test_parallel_matches_serial(self, small_result):
        """Two worker processes assemble the same points as the serial run."""
        parallel = run_layer_families(
            scenarios=("ideal", "typical_rram"),
            trials=3,
            batch=8,
            workers=2,
        )
        assert parallel.points == small_result.points

    def test_store_roundtrip_is_identical(self, small_result, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        kwargs = dict(scenarios=("ideal", "typical_rram"), trials=3, batch=8)
        cold = run_layer_families(store=store, **kwargs)
        warm = run_layer_families(store=store, **kwargs)
        assert cold.points == warm.points == small_result.points
        assert to_jsonable(cold) == to_jsonable(warm)

    def test_missing_point_raises(self, small_result):
        with pytest.raises(KeyError):
            small_result.point("conv", "unknown_scenario")


class TestFormattingAndRegistration:
    def test_format_contains_grid(self, small_result):
        text = format_layer_families(small_result)
        assert "Layer families — mapping efficiency" in text
        for family in FAMILIES:
            assert family in text
        assert "typical_rram" in text
        assert "savings" in text

    def test_registered_experiment(self):
        registry = experiment_registry()
        assert "layer_families" in registry
        spec = registry["layer_families"]
        assert spec.kind == "layer_families/cell"
        assert spec.cell is _family_point
        assert spec.cell_config is _layer_families_cell_config
        assert spec.result_type is LayerFamilyPoint
        assert spec.plan is _layer_families_plan

    def test_in_full_suite(self):
        from repro.experiments.runner import SUITE_EXPERIMENTS

        assert "layer_families" in SUITE_EXPERIMENTS

    def test_serializes_to_json(self, small_result):
        document = to_jsonable(small_result)
        payload = json.dumps(document)
        assert "tiny_transformer" in payload
        assert len(document["points"]) == len(small_result.points)
