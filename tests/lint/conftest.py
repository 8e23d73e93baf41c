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


def fixture_source(rule_id: str, kind: str) -> str:
    return (FIXTURES / f"{rule_id.lower()}_{kind}.py").read_text()


@pytest.fixture
def lint_at():
    """lint_at(source, rule_id) → findings at that rule's fixture path."""
    from repro.lint import lint_source

    def _lint(source: str, rule_id: str):
        return lint_source(source, FIXTURE_PATHS[rule_id])

    return _lint
