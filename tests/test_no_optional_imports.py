"""Core imports must not pull in optional dependencies at module scope.

The ``pip install .`` contract: a no-extras install runs every core entry
point with numpy alone.  That only holds if importing the package — and the
modules that *gate* optional features, like the server package — never
executes ``import numba`` / ``import fastapi`` at module scope.  Each case
runs in a fresh interpreter so this suite's own imports cannot mask a
violation, and asserts against ``sys.modules`` so a lazy import hidden
behind a function stays legal while a module-scope one fails loudly.  CI's
no-extras smoke job runs the same check from a clean venv where the
optional packages are not even installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

OPTIONAL = ("numba", "fastapi", "uvicorn")


def _run_fresh(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )

#: Module -> the optional deps importing it must NOT load.  repro.server is
#: included deliberately: it must be importable (for the availability error
#: message) without fastapi, which only loads when an app is constructed.
CASES = [
    ("repro", OPTIONAL),
    ("repro.backend", OPTIONAL),
    ("repro.cli", OPTIONAL),
    ("repro.engine", OPTIONAL),
    ("repro.server", OPTIONAL),
]


@pytest.mark.parametrize("module,forbidden", CASES, ids=[c[0] for c in CASES])
def test_import_does_not_load_optional_deps(module, forbidden):
    script = (
        "import sys\n"
        f"import {module}\n"
        f"loaded = [name for name in {forbidden!r}\n"
        "          if any(m == name or m.startswith(name + '.') for m in sys.modules)]\n"
        "assert not loaded, (\n"
        f"    f'importing {module} pulled in optional deps at module scope: {{loaded}}')\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_backend_listing_works_in_fresh_interpreter():
    """`repro backends` plumbing — the two-entry policy table — with no extras."""
    script = (
        "from repro.backend import backend_names, backend_policy\n"
        "names = backend_names()\n"
        "assert set(names) == {'numpy32', 'numpy64'}, names\n"
        "assert [backend_policy(name).dtype for name in names] == ['float32', 'float64']\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


#: Training-substrate modules a report never uses.  The package ``__init__``s
#: resolve their exports lazily (PEP 562), so none of these may load on the
#: report path.
REPORT_UNUSED = ("repro.nn", "repro.data", "repro.training.trainer", "repro.pruning", "repro.quantization")


def test_store_backed_report_path_skips_training_substrate(tmp_path):
    script = (
        "import sys\n"
        "import repro, repro.cli\n"
        "from repro.experiments.runner import run_all\n"
        "from repro.store import ExperimentStore\n"
        f"run_all(include_fig6_arrays=(32,), robustness_trials=1, store=ExperimentStore({str(tmp_path)!r}))\n"
        f"loaded = [name for name in {REPORT_UNUSED!r}\n"
        "          if any(m == name or m.startswith(name + '.') for m in sys.modules)]\n"
        "assert not loaded, f'the report path imported {loaded}'\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr


def test_lazy_exports_resolve_in_fresh_interpreter():
    script = (
        "import importlib\n"
        "for package in ('repro', 'repro.training', 'repro.lowrank'):\n"
        "    module = importlib.import_module(package)\n"
        "    assert len(module.__all__) == len(set(module.__all__)), package\n"
        "    for name in module.__all__:\n"
        "        assert getattr(module, name) is not None, (package, name)\n"
        "        assert name in dir(module), (package, name)\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "import repro\n"
        "assert set(repro.__all__) <= set(namespace), set(repro.__all__) - set(namespace)\n"
        "assert namespace['AccuracyProxy'] is repro.training.proxy.AccuracyProxy\n"
        "import repro.lowrank.decompose, repro.lowrank.group\n"
        "assert callable(repro.lowrank.decompose), 'the function, not the submodule'\n"
        "try:\n"
        "    repro.not_a_module\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unknown attribute resolved')\n"
    )
    result = _run_fresh(script)
    assert result.returncode == 0, result.stderr
