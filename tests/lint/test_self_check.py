"""The linter's own acceptance gate: every tree CI lints must be clean.

Tier-1 runs the same pass as the CI lint step, over the same four
trees, so a finding fails the test suite before it reaches CI.  The
remaining checks hold the lint policy to the tree it describes.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.lint import run_lint

SRC = Path(repro.__file__).parent
REPO_ROOT = SRC.parents[1]

#: The trees the CI lint step names: ``repro lint src/repro benchmarks
#: scripts examples``.
CI_TREES = [SRC] + [REPO_ROOT / name for name in ("benchmarks", "scripts", "examples")]


def test_shipped_tree_is_clean_without_any_baseline():
    """No baseline or suppression exists to absorb a finding: all six
    rules run over every tree CI lints and find nothing."""
    result = run_lint(CI_TREES)
    assert result.findings == [], "\n".join(
        finding.render() for finding in result.findings
    )
    assert result.files_scanned > 100


def test_constant_time_rule_clean_on_core_with_empty_baseline():
    """No baseline exists to grandfather a finding: ``core/`` compares
    every tag in constant time outright."""
    result = run_lint([SRC / "core"])
    assert [f for f in result.findings if f.rule == "SACHA002"] == []


def test_verifier_uses_compare_digest():
    source = (SRC / "core" / "verifier.py").read_text()
    assert source.count("hmac.compare_digest(") >= 2
    assert "== tag" not in source


def test_every_configured_scope_exists():
    """A scope that names a deleted module silently checks nothing, and
    a layer missing from the DAG is silently unrestricted: every path
    the rules are scoped to exists under ``src/``, and the DAG names
    exactly the top-level packages and modules under ``repro``."""
    from repro.lint import config

    scopes = config.DETERMINISM_EXEMPT + config.CONSTANT_TIME_PATHS
    assert [path for path in scopes if not (SRC.parent / path).exists()] == []

    layers = {"repro" if child.stem == "__init__" else child.stem
              for child in SRC.iterdir()
              if child.suffix == ".py" or (child / "__init__.py").is_file()}
    assert layers == set(config.LAYER_DAG)
