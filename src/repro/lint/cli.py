"""Argument handling for ``repro lint``.

Kept separate from :mod:`repro.cli` so the linter can run (and be
tested) without dragging in the rest of the command surface.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import run_lint
from repro.lint.program import all_program_rules
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro tree)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        type=Path,
        default=None,
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME} in the "
        "working directory or repo root, when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--program",
        action="store_true",
        help="also run the whole-program rule (SACHA006) over the scanned tree",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="append per-rule timing and file counts to the report",
    )


def default_paths() -> list:
    """The installed ``repro`` package tree."""
    import repro

    return [Path(repro.__file__).parent]


def _default_baseline_path() -> Optional[Path]:
    import repro

    candidates = [
        Path.cwd() / DEFAULT_BASELINE_NAME,
        # src/repro/__init__.py -> repo root, for checkouts
        Path(repro.__file__).resolve().parents[2] / DEFAULT_BASELINE_NAME,
    ]
    for candidate in candidates:
        if candidate.is_file():
            return candidate
    return None


def _list_rules(stream) -> int:
    for rule in all_rules():
        print(f"{rule.id}  {rule.title}", file=stream)
        print(f"    {rule.rationale}", file=stream)
    for program_rule in all_program_rules():
        print(
            f"{program_rule.id}  {program_rule.title}  [--program]",
            file=stream,
        )
        print(f"    {program_rule.rationale}", file=stream)
    return 0


def run(args: argparse.Namespace) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    if args.list_rules:
        return _list_rules(sys.stdout)

    config = DEFAULT_CONFIG
    if args.select:
        selected = frozenset(
            rule.strip().upper() for rule in args.select.split(",") if rule.strip()
        )
        config = LintConfig(select=selected)

    paths = args.paths or default_paths()
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"repro lint: no such path: {path}", file=sys.stderr)
        return 2

    baseline_path = args.baseline
    if baseline_path is None and not args.no_baseline:
        baseline_path = _default_baseline_path()

    if args.write_baseline:
        result = run_lint(paths, config, program=args.program)
        target = baseline_path or Path.cwd() / DEFAULT_BASELINE_NAME
        Baseline.from_findings(result.findings).save(target)
        print(
            f"sachalint: wrote {len(result.findings)} finding(s) to {target}"
        )
        return 0

    baseline = None
    if baseline_path is not None and not args.no_baseline:
        baseline = Baseline.load(baseline_path)

    result = run_lint(
        paths,
        config,
        baseline=baseline,
        program=args.program,
        collect_stats=args.stats,
    )
    report = (
        render_json(result) if args.format == "json" else render_text(result) + "\n"
    )
    if args.output:
        Path(args.output).write_text(report)
        if not result.clean:
            print(
                f"sachalint: {len(result.findings)} finding(s); "
                f"report written to {args.output}",
                file=sys.stderr,
            )
    else:
        sys.stdout.write(report)
    return result.exit_code
