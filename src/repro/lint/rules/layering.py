"""SACHA004: imports must follow the declared layer DAG.

The security argument assigns each package a role: ``crypto`` is pure
math a verifier could audit in isolation (it must never see the network,
the observability layer, or the simulator), ``fpga`` models a device
that has no network stack, and ``sim`` is the single-threaded event
queue whose determinism everything else leans on.  Those boundaries are
encoded in :data:`repro.lint.config.LAYER_DAG` and enforced here over
*all* imports, including ones nested inside functions.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple

from repro.lint.config import LAYER_DAG
from repro.lint.findings import Finding
from repro.lint.program import ProjectModel, SourceFile, resolve_import_from

RULE = "SACHA004"


def _repro_layer(module: str) -> Optional[str]:
    """The layer a ``repro.*`` module belongs to, or None for ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _imports(record: SourceFile) -> Iterator[Tuple[ast.stmt, str]]:
    """Every (node, absolute module) import in the file."""
    for node in ast.walk(record.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            resolved = resolve_import_from(record, node)
            if resolved:
                yield node, resolved


def check(model: ProjectModel) -> Iterator[Finding]:
    for record in model.files.values():
        layer = record.layer
        allowed = LAYER_DAG.get(layer) if layer is not None else None
        if allowed is None:
            continue
        for node, module in _imports(record):
            if module.split(".")[0] != "repro":
                continue
            target = _repro_layer(module)
            if target is None or target == layer:
                continue
            if target not in allowed:
                permitted = ", ".join(sorted(allowed)) or "nothing"
                yield Finding.at(
                    record.relpath,
                    node,
                    RULE,
                    f"layer {layer!r} must not import repro.{target} "
                    f"(allowed: {permitted})",
                    "invert the dependency or amend the layer DAG in "
                    "repro.lint.config with a rationale",
                )
