"""Tests for the calibrated accuracy proxy (resnet20 only — the WRN16-4 proxy
is exercised by the benchmark harness to keep unit tests fast)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.cache as cache_module
import repro.training.proxy as proxy_module
from repro.backend import Backend, using_backend
from repro.engine.cache import DecompositionCache
from repro.lowrank.decompose import LowRankFactors
from repro.lowrank.group import GroupLowRankFactors, group_relative_error
from repro.training.proxy import BASELINE_ACCURACY, TABLE1_ACCURACY, AccuracyProxy
from repro.workloads import compressible_geometries, reference_matrix
from repro.training.seeds import EXPERIMENT_SEEDS, seed_everything, spawn_generator


@pytest.fixture(scope="module")
def proxy() -> AccuracyProxy:
    return AccuracyProxy(network="resnet20")


class TestLowRankProxy:
    def test_baseline(self, proxy):
        assert proxy.baseline_accuracy == BASELINE_ACCURACY["resnet20"]

    def test_error_decreases_with_rank(self, proxy):
        errors = [proxy.mean_relative_error(divisor, 1) for divisor in (16, 8, 4, 2)]
        assert all(errors[i] >= errors[i + 1] for i in range(len(errors) - 1))

    def test_error_decreases_with_groups(self, proxy):
        """Theorem 1 at proxy level: more groups, same rank divisor → smaller error."""
        errors = [proxy.mean_relative_error(8, groups) for groups in (1, 2, 4, 8)]
        assert all(errors[i] >= errors[i + 1] - 1e-12 for i in range(len(errors) - 1))

    def test_accuracy_increases_with_rank(self, proxy):
        accs = [proxy.lowrank_accuracy(divisor, 1) for divisor in (16, 8, 4, 2)]
        assert all(accs[i] <= accs[i + 1] + 1e-9 for i in range(len(accs) - 1))

    def test_accuracy_increases_with_groups(self, proxy):
        accs = [proxy.lowrank_accuracy(16, groups) for groups in (1, 2, 4, 8)]
        assert all(accs[i] <= accs[i + 1] + 1e-9 for i in range(len(accs) - 1))

    def test_accuracy_below_baseline(self, proxy):
        for groups in (1, 4):
            for divisor in (2, 8, 16):
                assert proxy.lowrank_accuracy(divisor, groups) <= proxy.baseline_accuracy

    def test_anchor_configurations_near_table1(self, proxy):
        """Every Table I anchor must be reproduced within a couple of percent."""
        for (groups, divisor), paper_value in TABLE1_ACCURACY["resnet20"].items():
            measured = proxy.lowrank_accuracy(divisor, groups)
            assert measured == pytest.approx(paper_value, abs=3.0)

    def test_from_error_extremes(self, proxy):
        assert proxy.lowrank_accuracy_from_error(0.0) == pytest.approx(proxy.baseline_accuracy)
        assert proxy.lowrank_accuracy_from_error(1.0) < 60.0

    def test_from_error_monotone(self, proxy):
        values = [proxy.lowrank_accuracy_from_error(e) for e in np.linspace(0, 1, 21)]
        assert all(values[i] >= values[i + 1] - 1e-9 for i in range(len(values) - 1))

    def test_error_cache_consistency(self, proxy):
        assert proxy.mean_relative_error(8, 4) == proxy.mean_relative_error(8, 4)


class TestBaselineProxies:
    def test_pattern_pruning_monotone_in_entries(self, proxy):
        accs = [proxy.pattern_pruning_accuracy(e) for e in range(1, 9)]
        assert all(accs[i] <= accs[i + 1] for i in range(len(accs) - 1))

    def test_pattern_pruning_clamps_entries(self, proxy):
        assert proxy.pattern_pruning_accuracy(0) == proxy.pattern_pruning_accuracy(1)
        assert proxy.pattern_pruning_accuracy(20) == proxy.pattern_pruning_accuracy(8)

    def test_pairs_at_least_patdnn(self, proxy):
        for entries in (1, 4, 8):
            assert proxy.pairs_accuracy(entries) >= proxy.pattern_pruning_accuracy(entries)
            assert proxy.pairs_accuracy(entries) <= proxy.baseline_accuracy

    def test_quantization_monotone_in_bits(self, proxy):
        accs = [proxy.quantization_accuracy(bits) for bits in (1, 2, 3, 4)]
        assert all(accs[i] <= accs[i + 1] for i in range(len(accs) - 1))

    def test_headline_accuracy_gap_shape(self, proxy):
        """The proposed method's low-cycle configs beat aggressive pruning by a wide margin."""
        ours_low_cost = proxy.lowrank_accuracy(16, 8)
        pruning_low_cost = proxy.pattern_pruning_accuracy(1)
        assert ours_low_cost - pruning_low_cost > 5.0

    def test_invalid_network(self):
        with pytest.raises(ValueError):
            AccuracyProxy(network="vgg16")

    def test_jitter_disabled_by_default(self, proxy):
        assert proxy.lowrank_accuracy(8, 4) == proxy.lowrank_accuracy(8, 4)

    def test_jitter_adds_noise(self):
        noisy = AccuracyProxy(network="resnet20", noise_std=0.5)
        values = {noisy.lowrank_accuracy(8, 4) for _ in range(5)}
        assert len(values) > 1


def _oracle_mean_relative_errors(network: str, groups: int, divisors, seed: int = 0):
    """Unmemoized proxy errors of one group count: every layer regenerated and
    decomposed from scratch, one plain ``numpy.linalg.svd`` per column block,
    truncated per rank as :func:`repro.lowrank.decompose.decompose` does."""
    per_layer = {divisor: [] for divisor in divisors}
    for geometry in compressible_geometries(network):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(geometry.m, geometry.n))
        )
        matrix = rng.normal(0.0, 1.0 / np.sqrt(geometry.n), size=(geometry.m, geometry.n))
        layer_groups = min(groups, geometry.in_channels)
        while geometry.n % layer_groups:
            layer_groups -= 1
        svds = [np.linalg.svd(block, full_matrices=False) for block in np.split(matrix, layer_groups, axis=1)]
        for divisor in divisors:
            rank = max(1, geometry.m // divisor)
            factors = GroupLowRankFactors(
                tuple(LowRankFactors(left=u[:, :rank] * s[:rank], right=vt[:rank]) for u, s, vt in svds)
            )
            per_layer[divisor].append(group_relative_error(matrix, factors))
    return {divisor: float(np.mean(errors)) for divisor, errors in per_layer.items()}


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty proxy memos and a fresh shared decomposition cache, restored
    afterwards; the proxy must leave that cache empty."""
    cache = DecompositionCache()
    monkeypatch.setattr(cache_module, "default_decomposition_cache", cache)
    for name in ("_LAYER_ERRORS", "_CALIBRATION_CACHE"):
        monkeypatch.setattr(proxy_module, name, {})
    return cache


class TestProxyMemo:
    def test_construction_generates_no_matrix(self):
        before = reference_matrix.cache_info()
        AccuracyProxy(network="wrn16_4", seed=1234)
        assert reference_matrix.cache_info() == before

    def test_reference_matrices_are_shared_and_read_only(self):
        matrix = reference_matrix(0, 16, 144)
        assert matrix is reference_matrix(0, 16, 144)
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    @pytest.mark.parametrize("network", sorted(TABLE1_ACCURACY))
    def test_table1_anchors_match_unmemoized_oracle(self, network):
        proxy = AccuracyProxy(network=network)
        anchors = sorted(TABLE1_ACCURACY[network])
        assert len(anchors) == 16
        with using_backend("numpy64"):
            for groups in sorted({groups for groups, _ in anchors}):
                divisors = [divisor for g, divisor in anchors if g == groups]
                expected = _oracle_mean_relative_errors(network, groups, divisors)
                for divisor in divisors:
                    assert proxy.mean_relative_error(divisor, groups) == expected[divisor], (groups, divisor)

    def test_one_svd_per_distinct_block(self, fresh_memos, monkeypatch):
        svds, fingerprints = [], []
        backend_svd = Backend.svd
        monkeypatch.setattr(Backend, "svd", lambda self, m: svds.append(m.shape) or backend_svd(self, m))
        fingerprint = cache_module.matrix_fingerprint
        monkeypatch.setattr(
            cache_module, "matrix_fingerprint", lambda m: fingerprints.append(m.shape) or fingerprint(m)
        )
        blocks = set()
        for network, anchors in TABLE1_ACCURACY.items():
            proxy = AccuracyProxy(network=network)
            for groups, divisor in anchors:
                proxy.mean_relative_error(divisor, groups)
                for geometry in compressible_geometries(network):
                    layer_groups = proxy_module.effective_groups(geometry, groups)
                    blocks.update((geometry.m, geometry.n, layer_groups, i) for i in range(layer_groups))
        assert len(svds) == len(blocks)
        # The proxy decomposes directly: the shared cache neither hashes,
        # misses nor holds anything.
        assert fingerprints == []
        assert fresh_memos.misses == 0
        assert len(fresh_memos) == 0

    def test_precisions_never_share_memo_entries(self, fresh_memos):
        proxy = AccuracyProxy(network="resnet20")
        served = {}
        for name in ("numpy64", "numpy32"):
            with using_backend(name):
                served[name] = (proxy.mean_relative_error(8, 4), proxy.lowrank_accuracy(8, 4))
        # Error keys lead with the precision, calibration keys carry it second.
        for memo, position in ((proxy_module._LAYER_ERRORS, 0), (proxy_module._CALIBRATION_CACHE, 1)):
            by_precision = {}
            for key in memo:
                rest = key[:position] + key[position + 1 :]
                by_precision.setdefault(key[position], set()).add(rest)
            assert set(by_precision) == {"float64", "float32"}
            assert by_precision["float64"] == by_precision["float32"]
        # Served from memos filled in the other order, each precision still
        # sees only its own errors and calibration.
        for name in ("_LAYER_ERRORS", "_CALIBRATION_CACHE"):
            getattr(proxy_module, name).clear()
        for name in ("numpy32", "numpy64"):
            with using_backend(name):
                assert (proxy.mean_relative_error(8, 4), proxy.lowrank_accuracy(8, 4)) == served[name]
        assert len(fresh_memos) == 0

    @pytest.mark.parametrize(
        "rank_divisor,groups,bad",
        [(0, 1, "rank_divisor"), (-4, 1, "rank_divisor"), (4, 0, "groups"), (4, -2, "groups")],
    )
    def test_invalid_configuration_fails_loudly(self, rank_divisor, groups, bad, fresh_memos):
        proxy = AccuracyProxy(network="resnet20")
        value = rank_divisor if bad == "rank_divisor" else groups
        for method in (proxy.mean_relative_error, proxy.lowrank_accuracy):
            with pytest.raises(ValueError, match=rf"{bad} must be at least 1, got {value}"):
                method(rank_divisor, groups)
        assert not proxy_module._LAYER_ERRORS
        assert not proxy_module._CALIBRATION_CACHE
        assert len(fresh_memos) == 0


class TestSeeds:
    def test_seed_everything_reproducible(self):
        seed_everything(3)
        a = np.random.rand(5)
        seed_everything(3)
        b = np.random.rand(5)
        np.testing.assert_allclose(a, b)

    def test_spawn_generator_streams_independent(self):
        a = spawn_generator(0, stream=0).random(4)
        b = spawn_generator(0, stream=1).random(4)
        assert not np.allclose(a, b)

    def test_experiment_seeds_are_three(self):
        assert len(EXPERIMENT_SEEDS) == 3
