"""Shared helpers for the sachalint suite."""

from __future__ import annotations

from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"

#: Virtual location each fixture pair is linted at — chosen so the
#: rule's scope (SACHA002's path prefixes, SACHA004's layer) actually
#: applies.
FIXTURE_PATHS = {
    "SACHA001": "repro/sim/fixture.py",
    "SACHA002": "repro/crypto/fixture.py",
    "SACHA003": "repro/core/fixture.py",
    "SACHA004": "repro/crypto/fixture.py",
    "SACHA005": "repro/fpga/fixture.py",
}

LOGGER_PRELUDE = (
    "from repro.obs.logging import get_logger\n\n_log = get_logger(__name__)\n"
)

#: A key minted and logged in one function: the smallest SACHA006 leak.
KEY_LEAK_SOURCE = (
    LOGGER_PRELUDE
    + "def run():\n"
    "    key = derive_key()\n"
    '    _log.info("boot", material=key)\n'
)


def fixture_source(rule_id: str, kind: str) -> str:
    return (FIXTURES / f"{rule_id.lower()}_{kind}.py").read_text()


@pytest.fixture
def lint_at():
    """lint_at(source, rule_id) → findings at that rule's fixture path."""
    from repro.lint import lint_sources

    def _lint(source: str, rule_id: str):
        return lint_sources({FIXTURE_PATHS[rule_id]: source})

    return _lint


@pytest.fixture
def violating_tree(tmp_path) -> Path:
    """Every rule violated: each bad fixture in its rule's scoped
    directory, plus the key leak at ``repro/core/leak.py``."""
    for rule_id, relpath in FIXTURE_PATHS.items():
        target = tmp_path / Path(relpath).parent / f"{rule_id.lower()}.py"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(fixture_source(rule_id, "bad"))
    (tmp_path / "repro" / "core" / "leak.py").write_text(KEY_LEAK_SOURCE)
    return tmp_path
