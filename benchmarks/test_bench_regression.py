"""Tests for the benchmark-regression gate and the emitter's failure handling.

The ``bench-regression`` CI job is only as trustworthy as its comparator, so
these tests pin: the speedup-vs-wall-clock metric selection, the tolerance
boundary, correctness-flag failures, missing/new-kernel handling, the noise
floor, markdown emission, and the emitter bugfix (a raising benchmark exits
non-zero naming the kernel and never writes a partial document).
"""

from __future__ import annotations

import json

import pytest

from benchmarks import compare_bench, kernel_timings


@pytest.fixture(autouse=True)
def isolate_job_summary(monkeypatch):
    """Comparator runs inside the test suite must never touch a real job summary."""
    monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)


def entry(kernel, engine=0.010, reference=None, speedup=None, **flags):
    payload = {"kernel": kernel, "engine_seconds": engine}
    if reference is not None:
        payload["reference_seconds"] = reference
    if speedup is not None:
        payload["speedup"] = speedup
    payload.update(flags)
    return payload


def document(*entries):
    return {"schema": "BENCH_kernels/v1", "repeats": 3, "results": list(entries)}


class TestCompare:
    def test_identical_documents_pass(self):
        doc = document(entry("a", speedup=4.0), entry("b", engine=0.5))
        deltas = compare_bench.compare(doc, doc, 1.25)
        assert all(not delta.failed for delta in deltas)

    def test_speedup_regression_detected(self):
        baseline = document(entry("a", speedup=4.0))
        current = document(entry("a", speedup=3.0))  # 1.33x degradation
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert delta.failed and delta.status == "regressed" and delta.metric == "speedup"

    def test_speedup_within_tolerance_passes(self):
        baseline = document(entry("a", speedup=4.0))
        current = document(entry("a", speedup=3.3))  # 1.21x degradation
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert not delta.failed

    def test_wall_clock_fallback_for_reference_less_kernels(self):
        baseline = document(entry("a", engine=0.100))
        current = document(entry("a", engine=0.140))
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert delta.failed and delta.metric == "engine_seconds"

    def test_faster_current_run_passes(self):
        baseline = document(entry("a", engine=0.100), entry("b", speedup=2.0))
        current = document(entry("a", engine=0.050), entry("b", speedup=5.0))
        assert all(not d.failed for d in compare_bench.compare(baseline, current, 1.25))

    def test_noise_floor_suppresses_tiny_kernels(self):
        baseline = document(entry("a", engine=0.001))
        current = document(entry("a", engine=0.003))  # 3x, but 3ms
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert not delta.failed and "noise floor" in delta.note

    def test_missing_kernel_fails(self):
        baseline = document(entry("a", speedup=2.0))
        (delta,) = compare_bench.compare(baseline, document(), 1.25)
        assert delta.failed and delta.status == "missing"

    def test_lost_speedup_metric_fails_instead_of_downgrading(self):
        """A kernel whose baseline has a speedup must not silently fall back
        to the cross-host wall-clock comparison when the current run loses it."""
        baseline = document(entry("a", engine=0.100, speedup=4.0))
        current = document(entry("a", engine=0.001))  # fast wall clock, no speedup
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert delta.failed and delta.status == "missing"
        assert "speedup metric" in delta.note

    def test_new_kernel_reported_but_passes(self):
        current = document(entry("brand_new", engine=1.0))
        (delta,) = compare_bench.compare(document(), current, 1.25)
        assert not delta.failed and delta.status == "new"

    @pytest.mark.parametrize(
        "flag", ["matches_reference", "within_policy_envelope", "byte_identical"]
    )
    def test_false_correctness_flag_fails_regardless_of_timing(self, flag):
        baseline = document(entry("a", speedup=2.0))
        current = document(entry("a", speedup=10.0, **{flag: False}))
        (delta,) = compare_bench.compare(baseline, current, 1.25)
        assert delta.failed and delta.status == "incorrect" and flag in delta.note

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(ValueError):
            compare_bench.compare(document(), document(), 1.0)


class TestMainMissingKernels:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_main_aggregates_missing_kernels_on_stderr(self, tmp_path, capsys):
        """Every absent baseline kernel is named in one actionable line."""
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(
            base,
            document(entry("gone_one", speedup=2.0), entry("gone_two", engine=0.1)),
        )
        self._write(cur, document())
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 1
        assert "baseline entries missing from the current run: gone_one, gone_two" in captured.err
        assert "refreshed" in captured.err and "BENCH_kernels.json" in captured.err

    def test_lost_speedup_metric_not_in_aggregate_line(self, tmp_path, capsys):
        """The aggregate line names only fully absent kernels; a present
        kernel that lost its speedup metric fails via its own record."""
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("a", engine=0.1, speedup=4.0)))
        self._write(cur, document(entry("a", engine=0.1)))
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 1
        assert "baseline entries missing" not in captured.err
        assert "REGRESSION a" in captured.err


class TestMainAndMarkdown:
    def _write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_main_pass_and_markdown(self, tmp_path, capsys):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("a", speedup=2.0)))
        self._write(cur, document(entry("a", speedup=2.1)))
        markdown = tmp_path / "delta.md"
        code = compare_bench.main(
            ["--baseline", str(base), "--current", str(cur), "--markdown", str(markdown)]
        )
        assert code == 0
        text = markdown.read_text()
        assert "Verdict: PASS" in text and "| a | speedup |" in text
        capsys.readouterr()

    def test_main_regression_exits_nonzero_and_names_kernel(self, tmp_path, capsys):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("hot_kernel", speedup=4.0)))
        self._write(cur, document(entry("hot_kernel", speedup=1.0)))
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REGRESSION hot_kernel" in captured.err
        assert "Verdict: FAIL" in captured.out

    def test_main_missing_baseline_file(self, tmp_path, capsys):
        cur = tmp_path / "cur.json"
        self._write(cur, document())
        code = compare_bench.main(["--baseline", str(tmp_path / "nope.json"), "--current", str(cur)])
        assert code == 2
        capsys.readouterr()

    def test_delta_appended_to_github_step_summary(self, tmp_path, monkeypatch, capsys):
        """Regressions must be visible on the job page, not only in an artifact."""
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("a", speedup=4.0)))
        self._write(cur, document(entry("a", speedup=1.0)))
        summary = tmp_path / "summary.md"
        summary.write_text("# Earlier step\n", encoding="utf-8")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        capsys.readouterr()
        assert code == 1
        text = summary.read_text()
        # Appended after the earlier step's section, never truncating it.
        assert text.startswith("# Earlier step")
        assert "Verdict: FAIL" in text and "| a | speedup |" in text

    def test_unwritable_step_summary_does_not_break_the_gate(
        self, tmp_path, monkeypatch, capsys
    ):
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("a", speedup=2.0)))
        self._write(cur, document(entry("a", speedup=2.0)))
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(tmp_path / "no" / "such" / "dir" / "s.md"))
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        captured = capsys.readouterr()
        assert code == 0
        assert "cannot write job summary" in captured.err

    def test_tolerance_env_default(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BENCH_TOLERANCE", "3.0")
        base, cur = tmp_path / "base.json", tmp_path / "cur.json"
        self._write(base, document(entry("a", speedup=4.0)))
        self._write(cur, document(entry("a", speedup=2.0)))  # 2x: fails at 1.25, passes at 3.0
        code = compare_bench.main(["--baseline", str(base), "--current", str(cur)])
        assert code == 0
        capsys.readouterr()


class TestEmitterFailureHandling:
    """kernel_timings.main must abort cleanly when a benchmark raises."""

    def test_failing_benchmark_exits_nonzero_without_partial_output(
        self, tmp_path, monkeypatch, capsys
    ):
        def fine(repeats):
            return {"kernel": "fine", "engine_seconds": 0.001}

        def explode(repeats):
            raise RuntimeError("synthetic benchmark failure")

        monkeypatch.setattr(
            kernel_timings, "BENCHMARKS", (("fine", fine), ("explode", explode))
        )
        output = tmp_path / "BENCH_kernels.json"
        code = kernel_timings.main(["--output", str(output), "--repeats", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert not output.exists(), "a failing run must not emit a partial document"
        assert "'explode' failed" in captured.err
        assert "synthetic benchmark failure" in captured.err

    def test_all_benchmarks_green_writes_document(self, tmp_path, monkeypatch, capsys):
        def one(repeats):
            return {"kernel": "one", "engine_seconds": 0.001, "speedup": 2.0}

        def many(repeats):
            return [
                {"kernel": "two", "engine_seconds": 0.002},
                {"kernel": "three", "engine_seconds": 0.003},
            ]

        monkeypatch.setattr(kernel_timings, "BENCHMARKS", (("one", one), ("many", many)))
        output = tmp_path / "BENCH_kernels.json"
        assert kernel_timings.main(["--output", str(output), "--repeats", "1"]) == 0
        capsys.readouterr()
        doc = json.loads(output.read_text())
        assert [e["kernel"] for e in doc["results"]] == ["one", "two", "three"]
