#!/usr/bin/env python
"""Docs-consistency gate: the registries and the docs must agree.

The README, ENGINE.md and docs/workloads.md enumerate registered names —
experiments, execution backends, zoo networks.  Those listings rot silently:
registering a new experiment without documenting it ships an invisible
feature, and a doc mentioning a renamed backend ships a lie.  This check
walks the live registries and fails when a registered name is missing from
the documents that promise to list it:

* every ``experiment_registry()`` name must appear in README.md and ENGINE.md;
* every ``backend_names()`` name must appear in README.md and ENGINE.md;
* every ``registered_networks()`` name must appear in docs/workloads.md;
* every ``--flag`` on a ``repro`` command line in README.md, ENGINE.md and
  ``docs/*.md`` must be an option that ``repro.cli.build_parser()`` or one of
  its subcommand parsers defines (a documented flag that no longer exists
  ships a broken example);
* every backend those documents select with ``--backend NAME`` or
  ``REPRO_BACKEND=NAME`` must be one of ``backend_names()`` (a removed
  backend in an example fails before any work starts).

Run from the repository root (CI does, via the docs-consistency job)::

    python tools/check_docs.py
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import List, Sequence, Set, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend import backend_names  # noqa: E402
from repro.cli import build_parser  # noqa: E402
from repro.engine.sweep import experiment_registry  # noqa: E402
from repro.workloads import registered_networks  # noqa: E402
import repro.experiments  # noqa: E402,F401  (populates the experiment registry)


def missing_names(document: Path, names: Sequence[str]) -> List[str]:
    """Names with no word-boundary occurrence anywhere in ``document``."""
    text = document.read_text(encoding="utf-8")
    return [
        name for name in names
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]


#: A ``repro`` invocation (``python -m repro ...`` or bare ``repro ...``) up
#: to the end of its code span, table cell, shell comment or line.
_REPRO_COMMAND = re.compile(
    r"(?:python -m repro|(?<![\w./-])repro)(?=[ \t])(?P<args>[^`|#\n]*)"
)
_FLAG = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")


def cli_options(parser: argparse.ArgumentParser) -> Set[str]:
    """Every option string ``parser`` and its subcommand parsers define."""
    options: Set[str] = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                options |= cli_options(subparser)
    return options


def unknown_flags(document: Path, options: Set[str]) -> List[str]:
    """``"<line>: <flag>"`` for each repro-command flag ``options`` lacks."""
    unknown = []
    lines = document.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        for command in _REPRO_COMMAND.finditer(line):
            for flag in _FLAG.findall(command.group("args")):
                if flag not in options:
                    unknown.append(f"{number}: {flag}")
    return unknown


#: A backend selected by name: ``--backend NAME``, ``--backend=NAME`` or
#: ``REPRO_BACKEND=NAME``.  ``a|b`` alternatives are checked one by one; an
#: upper-case placeholder (``--backend NAME``) is not a name.
_BACKEND_CHOICE = re.compile(r"(?:--backend[ =]|REPRO_BACKEND=)(?P<names>[a-z][\w|]*)")


def unknown_backends(document: Path, names: Sequence[str]) -> List[str]:
    """``"<line>: <name>"`` for each selected backend ``names`` lacks."""
    unknown = []
    lines = document.read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, start=1):
        for choice in _BACKEND_CHOICE.finditer(line):
            for name in choice.group("names").split("|"):
                if name not in names:
                    unknown.append(f"{number}: {name}")
    return unknown


def main() -> int:
    experiments = tuple(sorted(experiment_registry()))
    backends = tuple(backend_names())
    networks = registered_networks()

    requirements: Tuple[Tuple[Path, Tuple[str, ...], str], ...] = (
        (REPO_ROOT / "README.md", experiments, "registered experiments"),
        (REPO_ROOT / "README.md", backends, "registered backends"),
        (REPO_ROOT / "ENGINE.md", experiments, "registered experiments"),
        (REPO_ROOT / "ENGINE.md", backends, "registered backends"),
        (REPO_ROOT / "docs" / "workloads.md", networks, "registered zoo networks"),
    )

    failures: List[str] = []
    for document, names, label in requirements:
        relative = document.relative_to(REPO_ROOT)
        if not document.exists():
            failures.append(f"{relative}: missing (must list the {label})")
            continue
        absent = missing_names(document, names)
        if absent:
            failures.append(f"{relative}: {label} not mentioned: {', '.join(absent)}")

    options = cli_options(build_parser())
    flag_documents = [REPO_ROOT / "README.md", REPO_ROOT / "ENGINE.md"]
    flag_documents += sorted((REPO_ROOT / "docs").glob("*.md"))
    for document in flag_documents:
        if document.exists():
            relative = document.relative_to(REPO_ROOT)
            for where in unknown_flags(document, options):
                failures.append(f"{relative}:{where} is not a repro CLI option")
            for where in unknown_backends(document, backends):
                failures.append(f"{relative}:{where} is not an execution backend")

    if failures:
        print("docs-consistency check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        print(
            "Document every registered name (or unregister it) and only "
            "documented CLI options; see docs/workloads.md and ENGINE.md.",
            file=sys.stderr,
        )
        return 1

    print(
        "docs-consistency OK: "
        f"{len(experiments)} experiments, {len(backends)} backends, "
        f"{len(networks)} networks all documented; "
        f"every documented repro flag and backend exists"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
