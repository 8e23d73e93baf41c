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

from repro.lint.findings import Finding
from repro.lint.registry import FileContext, Rule, register


def _repro_layer(module: str) -> Optional[str]:
    """The layer a ``repro.*`` module belongs to, or None for ``repro``."""
    parts = module.split(".")
    if parts[0] != "repro" or len(parts) < 2:
        return None
    return parts[1]


def _imports(
    ctx: FileContext,
) -> Iterator[Tuple[ast.stmt, str]]:
    """Every (node, absolute module) import in the file."""
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module:
                    yield node, node.module
                continue
            module = ctx.module
            if module is None:
                continue
            package = module.split(".")
            if not ctx.relpath.endswith("__init__.py"):
                package = package[:-1]
            anchor = package[: len(package) - (node.level - 1)]
            if not anchor:
                continue
            resolved = ".".join(anchor + ([node.module] if node.module else []))
            yield node, resolved


@register
class LayeringRule(Rule):
    id = "SACHA004"
    title = "imports follow the declared layer DAG"
    rationale = (
        "crypto must be auditable without the network or simulator in "
        "scope, and the device model must stay network-free; layering "
        "violations rot exactly these guarantees"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.layer is not None

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        layer = ctx.layer
        allowed = ctx.config.layer_dag.get(layer, None)
        if allowed is None:
            return
        for node, module in _imports(ctx):
            if module.split(".")[0] != "repro":
                continue
            target = _repro_layer(module)
            if target is None or target == layer:
                continue
            if target not in allowed:
                permitted = ", ".join(sorted(allowed)) or "nothing"
                yield ctx.finding(
                    node,
                    self.id,
                    f"layer {layer!r} must not import repro.{target} "
                    f"(allowed: {permitted})",
                    "invert the dependency or amend the layer DAG in "
                    "repro.lint.config with a rationale",
                )
