"""The one sweep driver, :meth:`ExperimentSpec.run`, over every registered experiment.

Each experiment runs a small grid through every execution path the driver
owns — cold, incremental against a store, warm, and sharded then assembled —
and every path must serialize to the same bytes.  Invalid domain parameters
must raise in the caller, before the driver hands anything to worker
processes.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments  # noqa: F401 — populates the experiment registry
import repro.parallel as parallel_module
from repro.engine import sweep as sweep_module
from repro.engine.cache import default_decomposition_cache
from repro.engine.sweep import ShardStats, experiment_registry
from repro.store import ExperimentStore

#: A small grid of every registered experiment (at least two cells each).
SMALL_GRIDS = {
    "table1": dict(
        networks=("resnet20",), array_sizes=(32,), group_counts=(1, 2), rank_divisors=(2, 4)
    ),
    "fig6": dict(
        networks=("resnet20",),
        array_sizes=(32, 64),
        group_counts=(1,),
        rank_divisors=(2,),
        pruning_entries=(8,),
    ),
    "fig7": dict(networks=("resnet20",), array_sizes=(32, 64)),
    "fig8": dict(array_sizes=(64, 128), bits=(2, 4), group_counts=(1,), rank_divisors=(2,)),
    "fig9": dict(
        panels=(("resnet20", 32), ("resnet20", 64)), group_counts=(1,), rank_divisors=(2, 4)
    ),
    "robustness": dict(
        networks=("resnet20",), scenarios=("ideal", "faulty"), trials=2, batch=4
    ),
    "layer_families": dict(
        families=("conv", "depthwise"), scenarios=("ideal", "faulty"), trials=2, batch=4
    ),
}


@pytest.fixture(autouse=True)
def detach_store_after():
    yield
    default_decomposition_cache.detach_store()


@pytest.fixture
def saved_cells(monkeypatch):
    """Counts every cell the driver computes and persists."""
    counter = {"saved": 0}
    original = sweep_module.SweepCache.save

    def counting_save(self, fingerprint, result):
        counter["saved"] += 1
        return original(self, fingerprint, result)

    monkeypatch.setattr(sweep_module.SweepCache, "save", counting_save)
    return counter


def serialized(name, result):
    return json.dumps(experiment_registry()[name].serialize(result))


def test_every_registered_experiment_has_a_small_grid():
    assert set(SMALL_GRIDS) == set(experiment_registry())


@pytest.mark.parametrize("name", sorted(SMALL_GRIDS))
def test_every_execution_path_gives_identical_results(name, tmp_path, saved_cells):
    spec = experiment_registry()[name]
    params = SMALL_GRIDS[name]
    cold = serialized(name, spec.run(**params))
    assert saved_cells["saved"] == 0, "a storeless run persists nothing"

    store = ExperimentStore(tmp_path / "store")
    assert serialized(name, spec.run(store=store, **params)) == cold
    cells = saved_cells["saved"]
    assert cells >= 2
    assert serialized(name, spec.run(store=store, **params)) == cold
    assert saved_cells["saved"] == cells, "a warm run computes no cell"

    sharded = ExperimentStore(tmp_path / "sharded")
    stats = [spec.run(store=sharded, shard=(k, 3), **params) for k in (1, 2, 3)]
    assert all(isinstance(stat, ShardStats) for stat in stats)
    assert sum(stat.computed for stat in stats) == cells
    assert saved_cells["saved"] == 2 * cells
    assert serialized(name, spec.run(store=sharded, **params)) == cold
    assert saved_cells["saved"] == 2 * cells, "the shards left nothing to compute"


@pytest.mark.parametrize(
    "name, params",
    [
        ("robustness", dict(scenarios=("not_a_scenario",))),
        ("robustness", dict(trials=0)),
        ("layer_families", dict(families=("squeeze",))),
        ("layer_families", dict(scenarios=("not_a_scenario",))),
        ("layer_families", dict(trials=0)),
    ],
)
def test_invalid_params_raise_before_any_worker_spawns(name, params, monkeypatch):
    def no_workers(*args, **kwargs):
        raise AssertionError("worker processes launched for invalid parameters")

    monkeypatch.setattr(parallel_module, "run_experiments_parallel", no_workers)
    with pytest.raises((KeyError, ValueError)):
        experiment_registry()[name].run(workers=2, **params)


def test_workers_dispatch_the_caller_params_to_the_process_pool(monkeypatch, tmp_path):
    calls = []

    def fake_parallel(names, overrides, **kwargs):
        calls.append((names, overrides, kwargs))
        return {names[0]: "assembled"}

    monkeypatch.setattr(parallel_module, "run_experiments_parallel", fake_parallel)
    store = ExperimentStore(tmp_path / "store")
    params = SMALL_GRIDS["fig7"]
    assert experiment_registry()["fig7"].run(store=store, workers=2, **params) == "assembled"
    [(names, overrides, kwargs)] = calls
    assert names == ["fig7"] and overrides == {"fig7": params}
    assert kwargs["store"] is store and kwargs["workers"] == 2


def test_a_serial_suite_decision_is_not_overridden_by_the_environment(monkeypatch):
    """`run_experiments(workers=1)` stays serial under ``$REPRO_WORKERS=2``."""

    def no_workers(*args, **kwargs):
        raise AssertionError("worker processes launched for an explicitly serial run")

    monkeypatch.setenv(parallel_module.WORKERS_ENV_VAR, "2")
    monkeypatch.setattr(parallel_module, "run_experiments_parallel", no_workers)
    results = sweep_module.run_experiments(
        names=["fig7"], overrides={"fig7": SMALL_GRIDS["fig7"]}, workers=1
    )
    assert len(results["fig7"].bars) == 2
