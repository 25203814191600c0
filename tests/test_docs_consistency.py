"""The docs-consistency gate (tools/check_docs.py) and its helper.

The CI job runs the script; this suite keeps it honest locally — the live
repo must pass, and the name matcher must actually detect an undocumented
registration rather than vacuously succeeding.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "tools" / "check_docs.py"


def _load_module():
    spec = importlib.util.spec_from_file_location("check_docs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCheckDocs:
    def test_repo_docs_are_consistent(self):
        """The committed docs must cover every registered name."""
        completed = subprocess.run(
            [sys.executable, str(SCRIPT)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert completed.returncode == 0, completed.stderr
        assert "docs-consistency OK" in completed.stdout

    def test_missing_names_detects_absent_name(self, tmp_path):
        document = tmp_path / "doc.md"
        document.write_text("mentions `table1` and layer_families here")
        module = _load_module()
        absent = module.missing_names(
            document, ["table1", "layer_families", "fig6"]
        )
        assert absent == ["fig6"]

    def test_missing_names_requires_word_boundaries(self, tmp_path):
        """A substring inside a longer identifier is not a mention."""
        document = tmp_path / "doc.md"
        document.write_text("only fig6_extended appears")
        module = _load_module()
        assert module.missing_names(document, ["fig6_extended"]) == []

    def test_gate_lists_what_is_missing(self, tmp_path, monkeypatch):
        """Pointing the gate at empty docs names every absent registration."""
        module = _load_module()
        for name in ("README.md", "ENGINE.md"):
            (tmp_path / name).write_text("empty")
        (tmp_path / "docs").mkdir()
        monkeypatch.setattr(module, "REPO_ROOT", tmp_path)
        assert module.main() == 1

    def test_unknown_flags_detects_a_flag_the_cli_lacks(self, tmp_path):
        """Only flags on repro command lines are checked, against every parser."""
        document = tmp_path / "doc.md"
        document.write_text(
            "python -m repro robustness --scenarios faulty --jobs 2\n"
            "run `repro --store S report --shard 1/4` then `repro report --json x`\n"
            "REPRO_BACKEND=numpy32 python -m repro report --trials 8  # --not-checked\n"
            "pip install --upgrade repro\n"
            "| `python -m repro layer_families --familes conv` | typo |\n"
        )
        module = _load_module()
        options = module.cli_options(module.build_parser())
        assert {"--store", "--shard", "--scenarios", "--families"} <= options
        assert module.unknown_flags(document, options) == ["1: --jobs", "5: --familes"]

    def test_unknown_backends_detects_a_name_the_table_lacks(self, tmp_path):
        """Every ``--backend NAME`` / ``REPRO_BACKEND=NAME`` is checked, each
        ``a|b`` alternative on its own; upper-case placeholders are not names."""
        document = tmp_path / "doc.md"
        document.write_text(
            "python -m repro --backend numpy32 report\n"
            "python -m repro --backend threaded report\n"
            "REPRO_BACKEND=compiled python -m repro table1\n"
            "`--backend NAME` (or `$REPRO_BACKEND`) picks the backend\n"
            "suites run under `REPRO_BACKEND=numpy64|threaded|numpy32`\n"
            "python -m repro --backend=cuda fig8\n"
        )
        module = _load_module()
        assert module.unknown_backends(document, module.backend_names()) == [
            "2: threaded",
            "3: compiled",
            "5: threaded",
            "6: cuda",
        ]
