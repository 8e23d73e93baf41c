"""File collection and the one lint pass.

Every file is read and parsed once into a :class:`ProjectModel`, and
each rule of :data:`repro.lint.rules.RULES` runs over that model.  Every
finding is reported; nothing is filtered or waved through.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.lint.findings import PARSE_ERROR_RULE, Finding
from repro.lint.program import ProjectModel
from repro.lint.rules import RULES


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def source_relpath(path: Path) -> str:
    """The path findings in ``path`` are reported under, as posix.

    Under a ``repro`` root it is relative to that root: the engine
    anchors on the last path component named ``repro``, so rule scoping
    works for the installed tree (``src/repro/...``), a checkout scanned
    from anywhere, and the temporary ``<tmp>/repro/...`` trees the tests
    build.  Any other file keeps the path it was collected under (the
    module-scoped rules skip it).
    """
    parts = path.as_posix().split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.as_posix()


def collect_files(paths: Iterable[Path]) -> List[Path]:
    """Expand directories into sorted ``*.py`` files."""
    collected: List[Path] = []
    for path in paths:
        if path.is_dir():
            collected.extend(sorted(path.rglob("*.py")))
        else:
            collected.append(path)
    return collected


def lint_sources(sources: Mapping[str, str]) -> List[Finding]:
    """Every rule's findings over ``{relpath: source}``, sorted.

    A source that does not parse yields one ``SACHA000`` finding and
    stays out of the model.
    """
    findings: List[Finding] = []
    parsed: List[Tuple[str, ast.Module]] = []
    for relpath, source in sources.items():
        try:
            parsed.append((relpath, ast.parse(source)))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=relpath,
                    line=exc.lineno or 1,
                    column=(exc.offset or 0) + 1,
                    rule=PARSE_ERROR_RULE,
                    message=f"could not parse: {exc.msg}",
                )
            )
    model = ProjectModel.from_parsed(parsed)
    for rule in RULES:
        findings.extend(rule(model))
    return sorted(findings)


def run_lint(paths: Sequence[Path]) -> LintResult:
    """Lint ``paths`` (files or directories).

    Files that map to one relpath are linted once, as the last of them:
    a file named twice, or the same ``repro/...`` file of two trees.
    """
    sources: Dict[str, str] = {}
    for path in collect_files(paths):
        sources[source_relpath(path)] = path.read_text(encoding="utf-8")
    return LintResult(lint_sources(sources), len(sources))
