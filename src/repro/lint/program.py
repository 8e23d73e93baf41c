"""The file model every sachalint rule runs over.

Each linted file is parsed once into a :class:`SourceFile`; the
:class:`ProjectModel` holds them all and, for files under a ``repro``
root, adds what the whole-program rule needs on top: per-module import
bindings, class and function tables, and a name-resolved call graph.
A rule is one function from the model to its findings (:data:`Rule`):
the per-file rules walk ``model.files``, SACHA006 walks the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.findings import Finding


def module_for_relpath(relpath: str) -> Optional[str]:
    """Dotted module for a ``repro/...`` relpath; None outside the tree."""
    parts = relpath.split("/")
    if parts[0] != "repro" or not parts[-1].endswith(".py"):
        return None
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts = parts[:-1] + [parts[-1][:-3]]
    return ".".join(parts)


@dataclass
class SourceFile:
    """One parsed file, as every rule sees it."""

    relpath: str  #: ``repro/...`` under a ``repro`` root, else the path as given
    tree: ast.Module
    #: dotted module (``repro.core.verifier``); None outside a ``repro`` root
    module: Optional[str]
    #: top-level layer under ``repro``: ``repro/core/x.py`` -> ``core``,
    #: ``repro/errors.py`` -> ``errors``, ``repro/__init__.py`` -> ``repro``
    layer: Optional[str]
    #: module-level names bound to a structured logger
    #: (``_log = obs_log.get_logger(__name__)``).
    logger_names: Set[str] = field(default_factory=set)


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str  #: ``repro.fleet.store.FleetStore.enroll``
    name: str
    module: str
    relpath: str
    node: ast.FunctionDef
    class_name: Optional[str] = None  #: owning class, for methods
    params: List[str] = field(default_factory=list)  #: excludes ``self``

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class: annotated fields and methods."""

    qualname: str
    name: str
    module: str
    relpath: str
    node: ast.ClassDef
    #: annotated class-level field name -> annotation source text
    fields: Dict[str, str] = field(default_factory=dict)
    field_nodes: Dict[str, ast.AnnAssign] = field(default_factory=dict)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: List[str] = field(default_factory=list)


def _annotation_text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""


class ProjectModel:
    """Every linted file, plus the whole-program indexes of the ``repro`` ones."""

    def __init__(self) -> None:
        self.files: Dict[str, SourceFile] = {}  #: by relpath
        self.by_module: Dict[str, SourceFile] = {}
        #: module -> local binding name -> absolute dotted target
        self.imports: Dict[str, Dict[str, str]] = {}
        self.functions: Dict[str, FunctionInfo] = {}  #: by qualname
        self.classes: Dict[str, ClassInfo] = {}  #: by qualname
        self.functions_by_name: Dict[str, List[FunctionInfo]] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_parsed(
        cls, parsed: Iterable[Tuple[str, ast.Module]]
    ) -> "ProjectModel":
        """Build a model from ``(relpath, tree)`` pairs, one per file."""
        model = cls()
        for relpath, tree in parsed:
            model._add_file(relpath, tree)
        for record in model.files.values():
            model._index_file(record)
        return model

    def _add_file(self, relpath: str, tree: ast.Module) -> None:
        module = module_for_relpath(relpath)
        layer = None
        if module is not None:
            segments = module.split(".")
            layer = segments[1] if len(segments) > 1 else segments[0]
        record = SourceFile(relpath=relpath, tree=tree, module=module, layer=layer)
        self.files[relpath] = record
        if module is not None:
            self.by_module[module] = record

    def _index_file(self, record: SourceFile) -> None:
        module = record.module
        if module is None:
            return
        bindings: Dict[str, str] = {}
        for node in ast.walk(record.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bindings[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                base = resolve_import_from(record, node)
                if base is None:
                    continue
                for alias in node.names:
                    bindings[alias.asname or alias.name] = (
                        f"{base}.{alias.name}"
                    )
        self.imports[module] = bindings
        # module-level logger bindings and top-level defs
        for node in record.tree.body:
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                callee = dotted_tail(node.value.func)
                if callee == "get_logger":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            record.logger_names.add(target.id)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(record, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(record, node)

    def _index_function(
        self,
        record: SourceFile,
        node: ast.FunctionDef,
        class_name: Optional[str],
    ) -> FunctionInfo:
        assert record.module is not None
        owner = f"{record.module}.{class_name}." if class_name else (
            f"{record.module}."
        )
        params = [arg.arg for arg in node.args.args]
        if class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        info = FunctionInfo(
            qualname=f"{owner}{node.name}",
            name=node.name,
            module=record.module,
            relpath=record.relpath,
            node=node,
            class_name=class_name,
            params=params,
        )
        self.functions[info.qualname] = info
        self.functions_by_name.setdefault(node.name, []).append(info)
        return info

    def _index_class(self, record: SourceFile, node: ast.ClassDef) -> None:
        assert record.module is not None
        info = ClassInfo(
            qualname=f"{record.module}.{node.name}",
            name=node.name,
            module=record.module,
            relpath=record.relpath,
            node=node,
            base_names=[
                dotted_tail(base) or "" for base in node.bases
            ],
        )
        for statement in node.body:
            if isinstance(statement, ast.AnnAssign) and isinstance(
                statement.target, ast.Name
            ):
                info.fields[statement.target.id] = _annotation_text(
                    statement.annotation
                )
                info.field_nodes[statement.target.id] = statement
            elif isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                info.methods[statement.name] = self._index_function(
                    record, statement, class_name=node.name
                )
        self.classes[info.qualname] = info
        self.classes_by_name.setdefault(node.name, []).append(info)

    # -- queries -----------------------------------------------------------

    def field_annotations(self, attr: str) -> List[str]:
        """Every annotation the project gives a field named ``attr``."""
        return [
            info.fields[attr]
            for info in self.classes.values()
            if attr in info.fields
        ]

    def resolve_call(
        self, caller: FunctionInfo, call: ast.Call
    ) -> List[FunctionInfo]:
        """Candidate callees for ``call`` inside ``caller`` (may be [])."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_plain(caller.module, func.id)
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and caller.class_name is not None
            ):
                return self._resolve_self_method(caller, func.attr)
            base = dotted_name_of(func.value)
            if base is not None:
                target = self._binding_target(caller.module, base)
                if target is not None:
                    resolved = self._resolve_dotted(f"{target}.{func.attr}")
                    if resolved:
                        return resolved
            # fallback: the method name is project-unique (or nearly so)
            candidates = [
                info
                for info in self.functions_by_name.get(func.attr, [])
                if info.is_method
            ]
            if 1 <= len(candidates) <= 3:
                return candidates
        return []

    def _resolve_plain(self, module: str, name: str) -> List[FunctionInfo]:
        local = self.functions.get(f"{module}.{name}")
        if local is not None and not local.is_method:
            return [local]
        local_class = self.classes.get(f"{module}.{name}")
        if local_class is not None:
            init = local_class.methods.get("__init__")
            return [init] if init else []
        target = self.imports.get(module, {}).get(name)
        if target is not None:
            return self._resolve_dotted(target)
        return []

    def _resolve_dotted(self, dotted: str) -> List[FunctionInfo]:
        info = self.functions.get(dotted)
        if info is not None:
            return [info]
        klass = self.classes.get(dotted)
        if klass is not None:
            init = klass.methods.get("__init__")
            return [init] if init else []
        return []

    def _binding_target(self, module: str, base: str) -> Optional[str]:
        """Resolve a dotted base like ``obs_log`` or ``repro.obs.log``."""
        head = base.split(".")[0]
        bound = self.imports.get(module, {}).get(head)
        if bound is not None:
            rest = base.split(".")[1:]
            return ".".join([bound] + rest)
        if base in self.by_module:
            return base
        return None

    def _resolve_self_method(
        self, caller: FunctionInfo, method: str
    ) -> List[FunctionInfo]:
        assert caller.class_name is not None
        klass = self.classes.get(f"{caller.module}.{caller.class_name}")
        seen: Set[str] = set()
        while klass is not None and klass.qualname not in seen:
            seen.add(klass.qualname)
            if method in klass.methods:
                return [klass.methods[method]]
            klass = self._first_base(klass)
        return []

    def _first_base(self, klass: ClassInfo) -> Optional[ClassInfo]:
        for base in klass.base_names:
            name = base.split(".")[-1]
            candidates = self.classes_by_name.get(name, [])
            if len(candidates) == 1:
                return candidates[0]
        return None


def dotted_name_of(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_tail(node: ast.AST) -> Optional[str]:
    """The final component of a Name/Attribute/Call chain."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def resolve_import_from(record: SourceFile, node: ast.ImportFrom) -> Optional[str]:
    """The absolute module a ``from ... import`` in ``record`` names.

    None for a relative import outside a ``repro`` root or above it.
    """
    if node.level == 0:
        return node.module
    module = record.module
    if module is None:
        return None
    package = module.split(".")
    if not record.relpath.endswith("__init__.py"):
        package = package[:-1]
    anchor = package[: len(package) - (node.level - 1)]
    if not anchor:
        return None
    return ".".join(anchor + ([node.module] if node.module else []))


#: A rule: every finding it reports over the whole model.
Rule = Callable[[ProjectModel], Iterable[Finding]]
