"""``sachalint`` — domain-aware static analysis for the SACHa reproduction.

The Python type system cannot see the invariants SACHa's security
argument rests on: attestation runs must be bit-for-bit reproducible
across processes, MAC comparisons must not leak timing, and the crypto
layer must stay free of network or observability dependencies.  Each of
those has already bitten this repo (``DeterministicRng.fork`` once used
the per-process salted ``hash()``; the verifier compared tags with
``==``), so the checks live here as AST rules rather than in reviewers'
heads.

Five per-file rule families ship by default:

* ``SACHA001`` determinism — no wall clock or unseeded randomness;
* ``SACHA002`` constant-time crypto — tags compared via ``compare_digest``;
* ``SACHA003`` mutable defaults — the ``SessionOptions`` bug class;
* ``SACHA004`` import layering — the declared layer DAG;
* ``SACHA005`` single thread — no ``threading``, ``concurrent`` or
  ``multiprocessing`` imports.

One whole-program rule runs with ``repro lint --program``, over a
:class:`ProjectModel` (import graph, call graph, def-use summaries)
built from the same parse set as the per-file tier:

* ``SACHA006`` secret taint — key/nonce material never reaches logs,
  telemetry, exceptions, repr/hex, or unsanctioned SQLite columns.

Entry points: ``repro lint`` on the command line, :func:`run_lint` from
code, :func:`lint_source` for checking a snippet, and
:func:`lint_program_sources` for the multi-file fixture tests.
"""

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_CONFIG, LintConfig
from repro.lint.engine import (
    LintResult,
    RuleTiming,
    lint_file,
    lint_program_sources,
    lint_source,
    run_lint,
)
from repro.lint.findings import Finding
from repro.lint.program import (
    ProgramRule,
    ProjectModel,
    all_program_rules,
    register_program,
)
from repro.lint.registry import Rule, all_rules, get_rule
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Baseline",
    "DEFAULT_CONFIG",
    "Finding",
    "LintConfig",
    "LintResult",
    "ProgramRule",
    "ProjectModel",
    "Rule",
    "RuleTiming",
    "all_program_rules",
    "all_rules",
    "get_rule",
    "lint_file",
    "lint_program_sources",
    "lint_source",
    "register_program",
    "render_json",
    "render_text",
    "run_lint",
]
