"""Sweep-spec validation: defensive parsing and canonical job identity."""

from __future__ import annotations

import pytest

from repro.experiments.runner import SUITE_EXPERIMENTS
from repro.server import ServerConfig, SweepSpecError, parse_sweep_spec, spec_fingerprint


CONFIG = ServerConfig()


class TestParsing:
    def test_empty_spec_is_the_default_full_suite(self):
        spec = parse_sweep_spec({}, CONFIG)
        assert spec.experiments == tuple(SUITE_EXPERIMENTS)
        assert spec.is_full_suite
        assert spec.arrays is None
        assert spec.trials == 8
        assert spec.workers == CONFIG.job_workers

    def test_subset_selection_normalizes_to_suite_order(self):
        spec = parse_sweep_spec({"experiments": ["fig7", "table1"]}, CONFIG)
        assert spec.experiments == ("table1", "fig7")
        assert not spec.is_full_suite

    def test_arrays_normalize_sorted(self):
        spec = parse_sweep_spec({"arrays": [128, 32]}, CONFIG)
        assert spec.arrays == (32, 128)

    def test_full_array_grid_normalizes_to_default(self):
        explicit = parse_sweep_spec({"arrays": [32, 64, 128]}, CONFIG)
        implicit = parse_sweep_spec({}, CONFIG)
        assert explicit.arrays is None
        assert spec_fingerprint(explicit) == spec_fingerprint(implicit)

    def test_explicit_default_backend_matches_omitted(self):
        assert parse_sweep_spec({"backend": "numpy64"}, CONFIG).backend == "numpy64"
        assert parse_sweep_spec({}, CONFIG).backend == "numpy64"

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "JSON object"),
            ({"trails": 4}, "unknown sweep spec fields"),
            ({"experiments": []}, "non-empty"),
            ({"experiments": ["fig6", "fig6"]}, "duplicate"),
            ({"experiments": ["nope"]}, "unknown experiment"),
            ({"experiments": "table1"}, "non-empty list"),
            ({"arrays": [48]}, "not in the sweep grid"),
            ({"arrays": [64, 64]}, "duplicate array size"),
            ({"arrays": ["64"]}, "must be an integer"),
            ({"trials": 0}, "between 1 and"),
            ({"trials": True}, "must be an integer"),
            ({"trials": 10_000}, "between 1 and"),
            ({"workers": 0}, "between 1 and"),
            ({"workers": 99}, "between 1 and"),
            ({"backend": "cuda"}, "unknown backend"),
        ],
    )
    def test_malformed_specs_rejected_with_actionable_messages(self, payload, match):
        with pytest.raises(SweepSpecError, match=match):
            parse_sweep_spec(payload, CONFIG)


class TestFingerprint:
    def test_identical_specs_share_a_job_id(self):
        a = parse_sweep_spec({"trials": 4, "arrays": [64]}, CONFIG)
        b = parse_sweep_spec({"arrays": [64], "trials": 4}, CONFIG)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_workers_do_not_change_the_job_id(self):
        # --workers N output is byte-identical to --workers 1, so a request
        # at a different parallelism must hit the same cached job.
        a = parse_sweep_spec({"workers": 1}, CONFIG)
        b = parse_sweep_spec({"workers": 4}, CONFIG)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_experiment_permutations_share_a_job_id(self):
        a = parse_sweep_spec({"experiments": ["fig7", "table1"]}, CONFIG)
        b = parse_sweep_spec({"experiments": ["table1", "fig7"]}, CONFIG)
        assert spec_fingerprint(a) == spec_fingerprint(b)

    @pytest.mark.parametrize(
        "payload",
        [
            {"trials": 4},
            {"arrays": [64]},
            {"experiments": ["table1"]},
            {"backend": "numpy32"},
        ],
    )
    def test_result_changing_fields_change_the_job_id(self, payload):
        default = parse_sweep_spec({}, CONFIG)
        other = parse_sweep_spec(payload, CONFIG)
        assert spec_fingerprint(default) != spec_fingerprint(other)
