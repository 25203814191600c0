"""Incremental + sharded map_sweep semantics against a SweepCache."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.sweep import ShardStats, SweepCache, map_sweep, parse_shard, shard_owns
from repro.store import ExperimentStore, experiment_fingerprint


@dataclass(frozen=True)
class CellResult:
    x: int
    y: int
    product: int


def cell_config(x: int, y: int):
    return {"x": x, "y": y}


class CountingFn:
    def __init__(self):
        self.calls: List[tuple] = []

    def __call__(self, x: int, y: int) -> CellResult:
        self.calls.append((x, y))
        return CellResult(x=x, y=y, product=x * y)


@pytest.fixture
def cache(tmp_path):
    return SweepCache(
        ExperimentStore(tmp_path / "store"), "test/cell", cell_config, CellResult
    )


POINTS = [(x, y) for x in range(3) for y in range(4)]


class TestIncrementalMapSweep:
    def test_second_run_computes_nothing(self, cache):
        fn = CountingFn()
        first = map_sweep(fn, POINTS, cache=cache)
        assert len(fn.calls) == len(POINTS)
        second = map_sweep(fn, POINTS, cache=cache)
        assert len(fn.calls) == len(POINTS), "warm sweep must not recompute"
        assert first == second
        assert cache.hits == len(POINTS)

    def test_partial_store_computes_only_missing_cells(self, cache):
        warm = POINTS[::2]
        map_sweep(CountingFn(), warm, cache=cache)
        fn = CountingFn()
        results = map_sweep(fn, POINTS, cache=cache)
        assert sorted(fn.calls) == sorted(POINTS[1::2])
        assert results == [CellResult(x, y, x * y) for x, y in POINTS]

    def test_order_preserved_with_mixed_hits_and_misses(self, cache):
        map_sweep(CountingFn(), POINTS[3:7], cache=cache)
        results = map_sweep(CountingFn(), POINTS, cache=cache)
        assert [(r.x, r.y) for r in results] == POINTS

    def test_undecodable_payload_is_a_miss_not_a_crash(self, cache):
        """A checksum-valid artifact with a stale payload shape (structural
        change without a salt bump) must be dropped and recomputed."""
        point = POINTS[0]
        fingerprint = cache.fingerprint(point)
        cache.store.put(cache.kind, fingerprint, {"x": 0})  # missing fields
        fn = CountingFn()
        results = map_sweep(fn, [point], cache=cache)
        assert fn.calls == [point]
        assert results == [CellResult(0, 0, 0)]
        # The stale artifact was replaced by a decodable one.
        assert cache.store.get(cache.kind, fingerprint) == {"x": 0, "y": 0, "product": 0}

    def test_without_cache_behavior_unchanged(self):
        fn = CountingFn()
        results = map_sweep(fn, POINTS)
        assert results == [CellResult(x, y, x * y) for x, y in POINTS]
        with pytest.raises(ValueError):
            map_sweep(fn, POINTS, shard=(1, 2))


class TestShardedMapSweep:
    def test_shards_partition_the_grid(self, cache):
        n = 3
        owners = []
        for point in POINTS:
            fingerprint = cache.fingerprint(point)
            owners.append([k for k in range(1, n + 1) if shard_owns(fingerprint, k, n)])
        assert all(len(owner) == 1 for owner in owners), "each cell has exactly one owner"

    def test_sharded_runs_compose_and_resume(self, cache):
        fn = CountingFn()
        stats1 = map_sweep(fn, POINTS, cache=cache, shard=(1, 2))
        assert isinstance(stats1, ShardStats)
        assert stats1.computed + stats1.foreign == len(POINTS)
        assert stats1.resumed == 0

        # Re-running the same shard resumes everything.
        rerun = map_sweep(fn, POINTS, cache=cache, shard=(1, 2))
        assert rerun.computed == 0 and rerun.resumed == stats1.computed

        stats2 = map_sweep(fn, POINTS, cache=cache, shard=(2, 2))
        assert stats1.computed + stats2.computed == len(POINTS)
        assert sorted(fn.calls) == sorted(POINTS)

        # Assembly after both shards is a pure read.
        assembler = CountingFn()
        results = map_sweep(assembler, POINTS, cache=cache)
        assert assembler.calls == []
        assert results == [CellResult(x, y, x * y) for x, y in POINTS]

    def test_single_shard_owns_everything(self, cache):
        stats = map_sweep(CountingFn(), POINTS, cache=cache, shard=(1, 1))
        assert stats.computed == len(POINTS) and stats.foreign == 0


class TestShardSpec:
    def test_parse_shard_valid(self):
        assert parse_shard("1/4") == (1, 4)
        assert parse_shard("4/4") == (4, 4)

    @pytest.mark.parametrize("text", ["0/4", "5/4", "x/4", "1", "1/0", "-1/4", "1/"])
    def test_parse_shard_invalid(self, text):
        with pytest.raises(ValueError):
            parse_shard(text)

    @given(
        config=st.dictionaries(
            st.text(max_size=4), st.integers(-100, 100), max_size=4
        ),
        n=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=100, deadline=None)
    def test_ownership_is_a_total_function_of_the_fingerprint(self, config, n):
        fingerprint = experiment_fingerprint("prop", config)
        owners = [k for k in range(1, n + 1) if shard_owns(fingerprint, k, n)]
        assert len(owners) == 1


@dataclass(frozen=True)
class ErrorCell:
    label: str
    errors: List[float]


class TestNonFiniteCells:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_save_refuses_non_finite_and_leaves_store_unchanged(self, tmp_path, bad):
        root = tmp_path / "store"
        cache = SweepCache(ExperimentStore(root), "test/errors", cell_config, ErrorCell)
        cache.save(cache.fingerprint((0, 0)), ErrorCell("ok", [0.5, 1.0]))
        before = sorted(path.relative_to(root) for path in root.rglob("*"))
        fingerprint = cache.fingerprint((1, 0))
        with pytest.raises(ValueError, match=r"result\.errors\[1\] = "):
            cache.save(fingerprint, ErrorCell("bad", [0.5, bad]))
        assert sorted(path.relative_to(root) for path in root.rglob("*")) == before
        assert cache.load(fingerprint) is SweepCache._MISS
        assert cache.computed == 1
