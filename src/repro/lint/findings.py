"""The unit of lint output: one finding at one source location."""

from __future__ import annotations

import ast
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation."""

    path: str  #: ``repro/...`` under a ``repro`` root, else the path as given
    line: int
    column: int
    rule: str  #: rule id, e.g. ``SACHA002``
    message: str
    hint: str = ""  #: fix-it hint; empty when the rule has no mechanical fix

    @classmethod
    def at(
        cls, path: str, node: ast.AST, rule: str, message: str, hint: str = ""
    ) -> "Finding":
        """A finding at ``node``'s position (1-based line and column)."""
        return cls(
            path=path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            hint=hint,
        )

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


#: Pseudo-rule id for files the engine could not parse.
PARSE_ERROR_RULE = "SACHA000"
