"""SACHA003: no mutable default values, in signatures or dataclass fields.

Python evaluates a default once, at definition time; every call (and
every dataclass instance) then shares the object.  PR 2 shipped exactly
this bug: a shared ``SessionOptions`` default meant one networked run's
option mutations leaked into every later run.  The runtime only catches
the narrow ``list``/``dict``/``set``-instance case for dataclass fields,
and catches nothing for function signatures — so the linter does.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.findings import Finding
from repro.lint.program import ProjectModel, dotted_name_of

RULE = "SACHA003"

_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "defaultdict",
        "deque",
        "Counter",
        "OrderedDict",
        "collections.defaultdict",
        "collections.deque",
        "collections.Counter",
        "collections.OrderedDict",
    }
)

_HINT = (
    "default to None and build the object inside, or use "
    "dataclasses.field(default_factory=...)"
)


def _mutable_default(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(
        node,
        (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp),
    ):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name_of(node.func)
        return name in _MUTABLE_CONSTRUCTORS
    return False


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = dotted_name_of(target)
        if name in ("dataclass", "dataclasses.dataclass"):
            return True
    return False


def _field_default(node: ast.AST) -> Optional[ast.AST]:
    """The ``default=`` argument of a ``field(...)`` call, if present."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name_of(node.func)
    if name not in ("field", "dataclasses.field"):
        return None
    for keyword in node.keywords:
        if keyword.arg == "default":
            return keyword.value
    return None


def check(model: ProjectModel) -> Iterator[Finding]:
    for record in model.files.values():
        for node in ast.walk(record.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                yield from _check_signature(record.relpath, node)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                yield from _check_dataclass(record.relpath, node)


def _check_signature(relpath: str, node) -> Iterator[Finding]:
    where = (
        f"in {node.name}()"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        else "in lambda"
    )
    defaults = list(node.args.defaults) + [
        default for default in node.args.kw_defaults if default is not None
    ]
    for default in defaults:
        if _mutable_default(default):
            yield Finding.at(
                relpath,
                default,
                RULE,
                f"mutable default {where} is shared by every call",
                _HINT,
            )


def _check_dataclass(relpath: str, node: ast.ClassDef) -> Iterator[Finding]:
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign):
            value = statement.value
        elif isinstance(statement, ast.Assign):
            value = statement.value
        else:
            continue
        if value is None:
            continue
        candidate = _field_default(value) or value
        if _mutable_default(candidate):
            yield Finding.at(
                relpath,
                candidate,
                RULE,
                f"mutable default on dataclass {node.name} is shared "
                "by every instance",
                _HINT,
            )
