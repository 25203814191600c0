"""Benchmark-regression gate: compare BENCH_kernels.json against the baseline.

CI runs ``kernel_timings.py`` on every push and feeds the fresh document plus
the committed baseline (``benchmarks/baseline/BENCH_kernels.json``) through
this comparator::

    python benchmarks/compare_bench.py \
        --baseline benchmarks/baseline/BENCH_kernels.json \
        --current BENCH_kernels.json \
        --markdown bench_delta.md

Per kernel, the regression metric is chosen to be as hardware-independent as
possible:

* kernels with a measured reference implementation compare **speedups**
  (engine vs. reference on the *same* host), so a CI runner slower than the
  baseline machine does not flap the gate — only the engine getting slower
  *relative to its own reference* fails;
* reference-less kernels fall back to comparing absolute ``engine_seconds``;
* correctness flags carried by the document (``matches_reference``,
  ``byte_identical``, ``within_policy_envelope``,
  ``trials_bit_identical_to_oracle``) must all still be true — a "fast but
  wrong" run is a failure regardless of timing.

A kernel regresses when its metric degrades by more than ``--tolerance``
(default 1.25x, overridable via ``$BENCH_TOLERANCE``).  Kernels present in
the baseline but missing from the current run fail — individually and with
one aggregated stderr line listing every absent name, so a renamed or
removed bench is impossible to miss; new kernels are reported but pass
(commit a refreshed baseline to start gating them).

The markdown delta summary is written for CI to upload as an artifact — and,
when the run is a GitHub Actions job (``$GITHUB_STEP_SUMMARY`` is set),
appended to the job summary so a regression is readable straight from the
run page without downloading anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Boolean fields that assert correctness; False anywhere is a failure.
CORRECTNESS_FLAGS = (
    "matches_reference",
    "trials_bit_identical_to_oracle",
    "byte_identical",
    "within_policy_envelope",
)

DEFAULT_TOLERANCE = 1.25
TOLERANCE_ENV_VAR = "BENCH_TOLERANCE"

#: Wall-clock noise floor: a reference-less kernel whose current timing is
#: below this is never flagged — sub-5ms timings on shared CI runners are
#: scheduler-noise dominated, and a kernel that fast cannot be a meaningful
#: hot-path regression.  Speedup-based comparisons ignore the floor (both
#: sides run on the same host, so the ratio is already noise-normalized).
MIN_GATED_SECONDS = 0.005


class Delta:
    """One kernel's baseline-vs-current comparison."""

    def __init__(
        self,
        kernel: str,
        metric: str,
        baseline: Optional[float],
        current: Optional[float],
        ratio: Optional[float],
        status: str,
        note: str = "",
    ) -> None:
        self.kernel = kernel
        self.metric = metric
        self.baseline = baseline
        self.current = current
        self.ratio = ratio
        self.status = status
        self.note = note
        self.failed = status in ("regressed", "missing", "incorrect")


def _by_kernel(document: Dict) -> Dict[str, Dict]:
    return {entry["kernel"]: entry for entry in document.get("results", [])}


def _failed_flags(entry: Dict) -> List[str]:
    return [flag for flag in CORRECTNESS_FLAGS if entry.get(flag) is False]


def compare(baseline: Dict, current: Dict, tolerance: float) -> List[Delta]:
    """Per-kernel deltas, baseline order first, new kernels appended."""
    if tolerance <= 1.0:
        raise ValueError(f"tolerance must exceed 1.0, got {tolerance}")
    base_entries = _by_kernel(baseline)
    current_entries = _by_kernel(current)
    deltas: List[Delta] = []
    for kernel, base in base_entries.items():
        entry = current_entries.get(kernel)
        if entry is None:
            deltas.append(
                Delta(kernel, "-", None, None, None, "missing", "kernel absent from current run")
            )
            continue
        bad_flags = _failed_flags(entry)
        if bad_flags:
            deltas.append(
                Delta(
                    kernel, "correctness", None, None, None, "incorrect",
                    f"flags false: {', '.join(bad_flags)}",
                )
            )
            continue
        if base.get("speedup") and not entry.get("speedup"):
            # Never silently downgrade to the cross-host wall-clock metric:
            # losing the hardware-normalized speedup (a degenerate timing, a
            # dropped reference measurement) is itself a gate failure.
            deltas.append(
                Delta(
                    kernel, "speedup", base.get("speedup"), None, None, "missing",
                    "baseline has a speedup metric but the current run does not",
                )
            )
            continue
        metric, base_value, current_value, ratio = _metric(base, entry)
        if ratio is None:
            deltas.append(
                Delta(kernel, metric, base_value, current_value, None, "ok", "no comparable metric")
            )
            continue
        if (
            metric == "engine_seconds"
            and current_value is not None
            and current_value < MIN_GATED_SECONDS
        ):
            deltas.append(
                Delta(
                    kernel, metric, base_value, current_value, ratio, "ok",
                    "below wall-clock noise floor",
                )
            )
            continue
        status = "regressed" if ratio > tolerance else "ok"
        deltas.append(Delta(kernel, metric, base_value, current_value, ratio, status))
    for kernel, entry in current_entries.items():
        if kernel not in base_entries:
            deltas.append(
                Delta(
                    kernel,
                    "-",
                    None,
                    entry.get("engine_seconds"),
                    None,
                    "new",
                    "not in baseline (commit a refreshed baseline to gate it)",
                )
            )
    return deltas


def _metric(
    base: Dict, entry: Dict
) -> Tuple[str, Optional[float], Optional[float], Optional[float]]:
    """(metric name, baseline value, current value, degradation ratio > 1 is worse)."""
    base_speedup = base.get("speedup")
    current_speedup = entry.get("speedup")
    if base_speedup and current_speedup:
        return "speedup", base_speedup, current_speedup, base_speedup / current_speedup
    base_seconds = base.get("engine_seconds")
    current_seconds = entry.get("engine_seconds")
    if base_seconds and current_seconds:
        return "engine_seconds", base_seconds, current_seconds, current_seconds / base_seconds
    return "engine_seconds", base_seconds, current_seconds, None


def _format_value(metric: str, value: Optional[float]) -> str:
    if value is None:
        return "-"
    if metric == "speedup":
        return f"{value:.2f}x"
    if metric == "engine_seconds":
        return f"{value * 1e3:.2f} ms"
    return str(value)


def render_markdown(deltas: List[Delta], tolerance: float) -> str:
    """The delta summary CI uploads as an artifact."""
    failures = [delta for delta in deltas if delta.failed]
    lines = [
        "# Benchmark regression report",
        "",
        f"Tolerance: a kernel fails when its metric degrades beyond **{tolerance:.2f}x** "
        "(speedup ratio when a same-host reference exists, wall-clock otherwise).",
        "",
        f"**Verdict: {'FAIL' if failures else 'PASS'}** "
        f"({len(failures)} of {len(deltas)} kernels flagged)",
        "",
        "| kernel | metric | baseline | current | degradation | status |",
        "|---|---|---|---|---|---|",
    ]
    for delta in deltas:
        ratio = f"{delta.ratio:.2f}x" if delta.ratio is not None else "-"
        status = delta.status.upper() if delta.failed else delta.status
        note = f" — {delta.note}" if delta.note else ""
        lines.append(
            f"| {delta.kernel} | {delta.metric} "
            f"| {_format_value(delta.metric, delta.baseline)} "
            f"| {_format_value(delta.metric, delta.current)} "
            f"| {ratio} | {status}{note} |"
        )
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_kernels.json baseline")
    parser.add_argument("--current", required=True, help="freshly measured BENCH_kernels.json")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get(TOLERANCE_ENV_VAR, DEFAULT_TOLERANCE)),
        help=f"allowed degradation factor (default {DEFAULT_TOLERANCE}, env ${TOLERANCE_ENV_VAR})",
    )
    parser.add_argument(
        "--markdown", default="", help="also write the delta summary to this markdown file"
    )
    args = parser.parse_args(argv)
    try:
        baseline = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        current = json.loads(Path(args.current).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        print(f"cannot load benchmark documents: {error}", file=sys.stderr)
        return 2
    deltas = compare(baseline, current, args.tolerance)
    report = render_markdown(deltas, args.tolerance)
    if args.markdown:
        Path(args.markdown).write_text(report, encoding="utf-8")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path:
        # Append (never truncate): other steps of the same job may have
        # written their own sections already.
        try:
            with open(summary_path, "a", encoding="utf-8") as handle:
                handle.write(report + "\n")
        except OSError as error:
            print(f"cannot write job summary: {error}", file=sys.stderr)
    print(report)
    failures = [delta for delta in deltas if delta.failed]
    absent = [
        delta.kernel
        for delta in deltas
        if delta.status == "missing" and delta.metric == "-"
    ]
    if absent:
        # One aggregated, unambiguous line on top of the per-kernel records: a
        # renamed/removed bench must name itself, not just shrink the table.
        print(
            f"baseline entries missing from the current run: {', '.join(absent)} "
            "(a renamed or removed bench must ship a refreshed "
            "benchmarks/baseline/BENCH_kernels.json in the same change)",
            file=sys.stderr,
        )
    for delta in failures:
        print(
            f"REGRESSION {delta.kernel}: {delta.metric} "
            f"{_format_value(delta.metric, delta.baseline)} -> "
            f"{_format_value(delta.metric, delta.current)} "
            f"({delta.note or f'degraded {delta.ratio:.2f}x > {args.tolerance:.2f}x'})",
            file=sys.stderr,
        )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
