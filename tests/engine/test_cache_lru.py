"""DecompositionCache LRU bound, eviction, and persistent spill regression tests.

The original cache grew without bound: every distinct (sub-)matrix pinned its
full thin SVD (three dense arrays) for the life of the process, so a long
scenario sweep slowly ate resident memory.  These tests pin the fix: a strict
LRU bound, recency-ordered eviction, and — with a store attached — spill
semantics that make eviction lossless (evicted factors reload bit-identically
from disk instead of recomputing).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend import active_backend
from repro.engine.cache import DEFAULT_SVD_CACHE_ENTRIES, DecompositionCache
from repro.store import ExperimentStore


def matrices(count: int, rng: np.random.Generator):
    return [rng.standard_normal((8, 6)) for _ in range(count)]


class TestLruBound:
    def test_entry_count_never_exceeds_maxsize(self, rng):
        cache = DecompositionCache(maxsize=4)
        for matrix in matrices(20, rng):
            cache.svd(matrix)
            assert len(cache) <= 4
        assert cache.evictions == 16

    def test_least_recently_used_is_evicted_first(self, rng):
        cache = DecompositionCache(maxsize=2)
        first, second, third = matrices(3, rng)
        cache.svd(first)
        cache.svd(second)
        cache.svd(first)          # refresh: first is now most-recent
        cache.svd(third)          # evicts second, not first
        misses = cache.misses
        cache.svd(first)
        assert cache.misses == misses, "refreshed entry must survive the eviction"
        cache.svd(second)
        assert cache.misses == misses + 1, "stale entry must have been evicted"

    def test_unbounded_mode_still_available(self, rng):
        cache = DecompositionCache(maxsize=None)
        for matrix in matrices(30, rng):
            cache.svd(matrix)
        assert len(cache) == 30 and cache.evictions == 0

    def test_default_cache_is_bounded(self):
        assert DecompositionCache().maxsize == DEFAULT_SVD_CACHE_ENTRIES

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            DecompositionCache(maxsize=0)

    def test_eviction_does_not_change_results(self, rng):
        bounded = DecompositionCache(maxsize=1)
        unbounded = DecompositionCache(maxsize=None)
        mats = matrices(6, rng)
        for _ in range(2):  # second pass re-misses everything in the bounded cache
            for matrix in mats:
                left = bounded.decompose(matrix, 3)
                right = unbounded.decompose(matrix, 3)
                assert np.array_equal(left.left, right.left)
                assert np.array_equal(left.right, right.right)

    def test_concurrent_hits_and_evictions_do_not_race(self, rng):
        """map_sweep shares the default cache across a thread pool; the LRU
        bookkeeping (move_to_end racing popitem) must never raise."""
        from concurrent.futures import ThreadPoolExecutor

        cache = DecompositionCache(maxsize=2)
        mats = matrices(8, rng)

        def hammer(offset: int) -> None:
            for index in range(200):
                cache.svd(mats[(index + offset) % len(mats)])

        with ThreadPoolExecutor(max_workers=4) as pool:
            for future in [pool.submit(hammer, worker) for worker in range(4)]:
                future.result()  # raises if any worker hit a race
        assert len(cache) <= 2

    def test_clear_resets_counters(self, rng):
        cache = DecompositionCache(maxsize=2)
        for matrix in matrices(4, rng):
            cache.svd(matrix)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == cache.store_hits == 0


class TestStoreSpill:
    def test_evicted_svd_reloads_from_store_bit_identically(self, tmp_path, rng):
        store = ExperimentStore(tmp_path / "store")
        cache = DecompositionCache(maxsize=1)
        cache.attach_store(store)
        first, second = matrices(2, rng)
        u0, s0, vt0 = cache.svd(first)
        cache.svd(second)                       # evicts first from memory
        misses = cache.misses
        u1, s1, vt1 = cache.svd(first)          # refills from the store
        assert cache.misses == misses, "store refill must not recompute"
        assert cache.store_hits == 1
        assert np.array_equal(u0, u1) and np.array_equal(s0, s1) and np.array_equal(vt0, vt1)

    def test_store_is_shared_across_cache_instances(self, tmp_path, rng):
        store = ExperimentStore(tmp_path / "store")
        matrix = rng.standard_normal((10, 7))
        writer = DecompositionCache()
        writer.attach_store(store)
        expected = writer.svd(matrix)

        reader = DecompositionCache()
        reader.attach_store(store)
        loaded = reader.svd(matrix)
        assert reader.misses == 0 and reader.store_hits == 1
        for left, right in zip(expected, loaded):
            assert np.array_equal(left, right)

    def test_corrupt_spill_falls_back_to_recompute(self, tmp_path, rng):
        store = ExperimentStore(tmp_path / "store")
        cache = DecompositionCache(maxsize=1)
        cache.attach_store(store)
        first, second = matrices(2, rng)
        cache.svd(first)
        for path in (tmp_path / "store").rglob("*.npz"):
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        cache.svd(second)                       # evict first
        u, s, vt = cache.svd(first)             # corrupt spill -> recompute
        reference = np.linalg.svd(active_backend().asarray(first), full_matrices=False)
        assert np.array_equal(u, reference[0])

    def test_detach_store_stops_spilling(self, tmp_path, rng):
        store = ExperimentStore(tmp_path / "store")
        cache = DecompositionCache()
        cache.attach_store(store)
        cache.detach_store()
        cache.svd(rng.standard_normal((4, 4)))
        assert store.puts == 0


class TestCacheIntrospection:
    """Counters + attachment state the parallel worker summaries report."""

    def test_counters_mirror_the_attributes(self, tmp_path, rng):
        store = ExperimentStore(tmp_path / "store")
        cache = DecompositionCache(maxsize=1)
        cache.attach_store(store)
        first, second = matrices(2, rng)
        cache.svd(first)
        cache.svd(first)
        cache.svd(second)   # evicts first
        cache.svd(first)    # refills from the store
        assert cache.counters() == {
            "hits": 1,
            "misses": 2,
            "evictions": 2,
            "store_hits": 1,
        }

    def test_store_attached_property(self, tmp_path):
        cache = DecompositionCache()
        assert not cache.store_attached
        cache.attach_store(ExperimentStore(tmp_path / "store"))
        assert cache.store_attached
        cache.detach_store()
        assert not cache.store_attached

    def test_execution_context_attach_store_spills_its_cache(self, tmp_path, rng):
        from repro.engine.context import ExecutionContext
        from repro.mapping.geometry import ArrayDims

        store = ExperimentStore(tmp_path / "store")
        context = ExecutionContext(
            array=ArrayDims.square(32), decompositions=DecompositionCache()
        )
        assert context.attach_store(store) is context
        context.plan(rng.standard_normal((12, 9)), rank=3)
        assert store.puts > 0, "the context's private cache must spill through the store"
        puts = store.puts
        assert context.detach_store() is context
        context.plan(rng.standard_normal((8, 8)), rank=2)
        assert store.puts == puts
