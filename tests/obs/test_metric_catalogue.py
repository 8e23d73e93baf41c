"""The metric catalogue in docs/OBSERVABILITY.md matches the code.

An AST scan collects every literal ``sacha_*`` registration under
``src/repro``: ``counter`` / ``gauge`` / ``histogram`` calls (label names
from ``labels=``) and ``NetworkAttestationSession._count`` calls, whose
label names are its keyword names.  Each registered metric must have
exactly one catalogue row with the same type, label names and source
file, and every row must name a registered metric.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
CATALOGUE = ROOT / "docs" / "OBSERVABILITY.md"

_KINDS = ("counter", "gauge", "histogram")
_ROW = re.compile(r"^\| `(sacha_\w+)` \| (\w+) \| (.*?) \| `([\w/.]+)` \|$")

#: (type, sorted label names, source path relative to src/repro)
Registration = Tuple[str, Tuple[str, ...], str]


def _literal_labels(node: ast.expr) -> Tuple[str, ...]:
    assert isinstance(node, (ast.Tuple, ast.List)), ast.dump(node)
    names = []
    for element in node.elts:
        assert isinstance(element, ast.Constant), ast.dump(element)
        names.append(element.value)
    return tuple(sorted(names))


def _registration(call: ast.Call, source: str):
    """``(name, Registration)`` for a literal ``sacha_*`` registration."""
    func = call.func
    if not isinstance(func, ast.Attribute) or not call.args:
        return None
    first = call.args[0]
    if not (
        isinstance(first, ast.Constant)
        and isinstance(first.value, str)
        and first.value.startswith("sacha_")
    ):
        return None
    if func.attr in _KINDS:
        labels: Tuple[str, ...] = ()
        for keyword in call.keywords:
            if keyword.arg == "labels":
                labels = _literal_labels(keyword.value)
        if len(call.args) > 2:
            labels = _literal_labels(call.args[2])
        return first.value, (func.attr, labels, source)
    if func.attr == "_count":
        labels = tuple(sorted(k.arg for k in call.keywords if k.arg is not None))
        return first.value, ("counter", labels, source)
    return None


def registered_metrics() -> Dict[str, Set[Registration]]:
    found: Dict[str, Set[Registration]] = {}
    for path in sorted(SRC.rglob("*.py")):
        source = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                hit = _registration(node, source)
                if hit is not None:
                    found.setdefault(hit[0], set()).add(hit[1])
    return found


def catalogue_rows() -> Dict[str, List[Registration]]:
    rows: Dict[str, List[Registration]] = {}
    for line in CATALOGUE.read_text(encoding="utf-8").splitlines():
        match = _ROW.match(line)
        if match is None:
            continue
        name, kind, label_cell, source = match.groups()
        # Parentheses hold example values, e.g. `tier` (always `memo`).
        label_cell = re.sub(r"\([^)]*\)", "", label_cell)
        labels = tuple(sorted(re.findall(r"`(\w+)`", label_cell)))
        rows.setdefault(name, []).append((kind, labels, source))
    return rows


REGISTERED = registered_metrics()
ROWS = catalogue_rows()


def test_scan_finds_the_registrations():
    assert len(REGISTERED) > 40
    assert REGISTERED["sacha_session_undecodable_frames_total"] == {
        ("counter", ("side",), "core/net_session.py")
    }


@pytest.mark.parametrize("name", sorted(REGISTERED))
def test_every_registered_metric_has_one_matching_row(name):
    assert len(REGISTERED[name]) == 1, "one type, label set and source per name"
    assert ROWS.get(name, []) == list(REGISTERED[name])


def test_every_row_names_a_registered_metric():
    assert sorted(set(ROWS) - set(REGISTERED)) == []
