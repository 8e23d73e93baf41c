"""The linter's own acceptance gate: the shipped tree must be clean.

These tests pin the property CI enforces — ``repro lint`` exits zero on
the repository — and the satellite claims of the PR that introduced the
linter: the constant-time rule finds nothing left in ``core/`` even
with no baseline, and the committed baseline is empty (nothing was
grandfathered).
"""

from __future__ import annotations

import json
from pathlib import Path

import repro
from repro.lint import Baseline, LintConfig, run_lint

SRC = Path(repro.__file__).parent
REPO_ROOT = SRC.parents[1]
BASELINE = REPO_ROOT / ".sachalint-baseline.json"


def test_shipped_tree_is_clean_without_any_baseline():
    result = run_lint([SRC])
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )
    assert result.files_scanned > 100


def test_committed_baseline_exists_and_is_empty():
    payload = json.loads(BASELINE.read_text())
    assert payload["version"] == 1
    assert payload["findings"] == []
    assert Baseline.load(BASELINE).entries == []


def test_constant_time_rule_clean_on_core_with_empty_baseline():
    result = run_lint(
        [SRC / "core"], config=LintConfig(select=frozenset({"SACHA002"}))
    )
    assert result.findings == []


def test_verifier_uses_compare_digest():
    source = (SRC / "core" / "verifier.py").read_text()
    assert source.count("hmac.compare_digest(") >= 2
    assert "== tag" not in source


def test_every_configured_scope_exists():
    """A scope that names a deleted module silently checks nothing:
    every path the per-file and whole-program rules are scoped to
    exists under ``src/``."""
    from repro.lint import config

    scopes = (
        config.DETERMINISM_EXEMPT
        + config.CONSTANT_TIME_PATHS
        + config.WIRE_PROTOCOL_MODULES
        + config.WIRE_HEADER_MODULES
    )
    assert [path for path in scopes if not (SRC.parent / path).exists()] == []
