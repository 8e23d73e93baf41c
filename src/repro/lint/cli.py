"""Argument handling for ``repro lint [PATHS]``.

Kept separate from :mod:`repro.cli` so the linter can run (and be
tested) without dragging in the rest of the command surface.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List

from repro.lint.engine import LintResult, run_lint


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro tree)",
    )


def default_paths() -> List[Path]:
    """The installed ``repro`` package tree."""
    import repro

    return [Path(repro.__file__).parent]


def render_text(result: LintResult) -> str:
    """One line per finding plus its hint, then a summary line."""
    lines = []
    for finding in result.findings:
        lines.append(finding.render())
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    summary = f"sachalint: {result.files_scanned} file(s) scanned; "
    if result.findings:
        by_rule = Counter(finding.rule for finding in result.findings)
        breakdown = ", ".join(
            f"{rule}×{count}" for rule, count in sorted(by_rule.items())
        )
        summary += f"{len(result.findings)} finding(s): {breakdown}"
    else:
        summary += "clean"
    lines.append(summary)
    return "\n".join(lines)


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint``: 0 clean, 1 findings, 2 a missing path."""
    paths = args.paths or default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2
    result = run_lint(paths)
    print(render_text(result))
    return result.exit_code
