"""SACHA006: key and nonce material must not leave the crypto boundary.

SACHa's security argument assumes the MAC key exists in exactly three
places: the prover's PUF/key register, the verifier's enrollment record,
and the MAC engines keyed from them.  Everything else — structured
logs, metric labels, span attributes, exception text, ``repr``/``hex``
in operational layers, SQLite rows, JSON exports — is an exfiltration
side door.  This pass seeds taint at the declared sources
(:data:`repro.lint.config.SECRET_SOURCE_CALLS` and friends), propagates
it interprocedurally through assignments, f-strings, containers and the
call graph (per-function def-use summaries iterated to a fixed point),
and reports every flow into a sink that is not routed through a
sanctioned boundary (``SecretBytes``/``redact()``/``compare_digest``)
or an allowlisted SQLite column.

A companion declaration check flags dataclass fields with secret names
typed as raw ``bytes``/``str`` — the default dataclass repr prints
field values, so ``f"{record}"`` anywhere would leak the key.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.config import (
    NONCE_ATTR_NAMES,
    NONCE_SOURCE_CALLS,
    SECRET_ATTR_NAMES,
    SECRET_FIELD_NAMES,
    SECRET_SOURCE_CALLS,
    SQLITE_SECRET_COLUMNS,
    TAINT_REPR_EXEMPT_LAYERS,
    TAINT_SANITIZERS,
)
from repro.lint.findings import Finding
from repro.lint.program import FunctionInfo, ProjectModel, dotted_name_of, dotted_tail

RULE = "SACHA006"

KEY = "KEY"
NONCE = "NONCE"

_LOG_METHODS = frozenset(
    {"debug", "info", "warning", "error", "exception", "critical"}
)
_METRIC_METHODS = frozenset({"inc", "set", "observe"})
_HINT = (
    "route the value through repro.utils.secret (SecretBytes wraps it "
    "opaquely, redact() yields a loggable placeholder), or drop it"
)

_INSERT_COLUMNS = re.compile(
    r"insert\s+into\s+\S+\s*\(([^)]*)\)", re.IGNORECASE
)
_UPDATE_SET = re.compile(r"set\s+(.*?)(?:\s+where\s|$)", re.IGNORECASE | re.DOTALL)
_WHERE_COLUMNS = re.compile(r"(\w+)\s*=\s*\?")


def _sql_parameter_columns(sql: str) -> Optional[List[str]]:
    """Column name per ``?`` placeholder, or None when unparseable."""
    lowered = sql.strip()
    insert = _INSERT_COLUMNS.search(lowered)
    if insert:
        columns = [c.strip() for c in insert.group(1).split(",") if c.strip()]
        if sql.count("?") == len(columns):
            return columns
        return None
    update = _UPDATE_SET.search(lowered)
    if update:
        columns = _WHERE_COLUMNS.findall(lowered)
        if sql.count("?") == len(columns):
            return columns
        return None
    columns = _WHERE_COLUMNS.findall(lowered)
    if columns and sql.count("?") == len(columns):
        return columns
    return None


@dataclass
class _Sink:
    """A sink a function's parameter reaches (for call-site reporting)."""

    desc: str
    relpath: str
    line: int

    def key(self) -> Tuple[str, str, int]:
        return (self.desc, self.relpath, self.line)


@dataclass
class _Summary:
    """Def-use summary: what a function does with taint."""

    ret: Set[str] = field(default_factory=set)
    param_sinks: Dict[int, List[_Sink]] = field(default_factory=dict)

    def state_key(self) -> Tuple[object, ...]:
        return (
            frozenset(self.ret),
            tuple(
                (index, tuple(sorted(s.key() for s in sinks)))
                for index, sinks in sorted(self.param_sinks.items())
            ),
        )


class _Scan:
    """One pass over one function body, tracking a taint environment."""

    def __init__(
        self,
        fn: FunctionInfo,
        model: ProjectModel,
        summaries: Dict[str, _Summary],
        tainted_attrs: Dict[str, str],
        collect: Optional[Set[Finding]],
    ) -> None:
        self.fn = fn
        self.model = model
        self.summaries = summaries
        self.tainted_attrs = tainted_attrs  #: attr name -> KEY/NONCE
        self.collect = collect
        self.record = model.files[fn.relpath]
        self.layer = self.record.layer
        self.env: Dict[str, Set[str]] = {
            name: {f"P{index}"} for index, name in enumerate(fn.params)
        }
        #: local name -> ClassInfo qualname, for receivers whose class is
        #: evident from ``x = ClassName(...)``; beats the nearly-unique
        #: method-name fallback, which can map arguments onto the wrong
        #: same-named method.
        self.var_types: Dict[str, str] = {}
        self.summary = _Summary()

    def run(self) -> _Summary:
        # Two passes so loop-carried taint converges; findings dedupe in
        # the caller's set.
        for _ in range(2):
            self.visit_block(self.fn.node.body)
        return self.summary

    # -- statements --------------------------------------------------------

    def visit_block(self, body: Sequence[ast.stmt]) -> None:
        for statement in body:
            self.visit(statement)

    def visit(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = node.value
            if value is None:
                return
            tokens = self.eval(value)
            tokens |= self._randbytes_taint(node, value)
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                self._assign(target, tokens, augment=isinstance(node, ast.AugAssign))
                self._infer_type(target, value)
        elif isinstance(node, ast.Expr):
            self.eval(node.value)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                self.summary.ret |= self.eval(node.value)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.eval(node.exc)
        elif isinstance(node, ast.If):
            self.eval(node.test)
            self.visit_block(node.body)
            self.visit_block(node.orelse)
        elif isinstance(node, ast.While):
            self.eval(node.test)
            self.visit_block(node.body)
            self.visit_block(node.orelse)
        elif isinstance(node, ast.For):
            tokens = self.eval(node.iter)
            self._assign(node.target, tokens, augment=False)
            self.visit_block(node.body)
            self.visit_block(node.orelse)
        elif isinstance(node, ast.With):
            for item in node.items:
                tokens = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, tokens, augment=False)
            self.visit_block(node.body)
        elif isinstance(node, ast.Try):
            self.visit_block(node.body)
            for handler in node.handlers:
                self.visit_block(handler.body)
            self.visit_block(node.orelse)
            self.visit_block(node.finalbody)
        elif isinstance(node, (ast.Assert,)):
            self.eval(node.test)
        # nested defs/classes are indexed and scanned separately

    def _randbytes_taint(self, node: ast.stmt, value: ast.expr) -> Set[str]:
        """``key = rng.randbytes(...)`` seeds taint by the target's name."""
        if not (
            isinstance(value, ast.Call)
            and dotted_tail(value.func) == "randbytes"
        ):
            return set()
        names: List[str] = []
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id.lower())
        if any("key" in name for name in names):
            return {KEY}
        if any("nonce" in name for name in names):
            return {NONCE}
        return set()

    def _infer_type(self, target: ast.expr, value: ast.expr) -> None:
        """Track ``x = ClassName(...)`` so method calls on ``x`` resolve."""
        if not isinstance(target, ast.Name):
            return
        self.var_types.pop(target.id, None)
        if not isinstance(value, ast.Call):
            return
        tail = dotted_tail(value.func)
        if tail is None:
            return
        candidates = self.model.classes_by_name.get(tail, [])
        if len(candidates) == 1:
            self.var_types[target.id] = candidates[0].qualname

    def _typed_callees(self, func: ast.expr) -> List[FunctionInfo]:
        """Exact method resolution when the receiver's class is tracked."""
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
        ):
            return []
        qualname = self.var_types.get(func.value.id)
        if qualname is None:
            return []
        info = self.model.classes.get(qualname)
        if info is None:
            return []
        method = info.methods.get(func.attr)
        return [method] if method is not None else []

    def _assign(
        self, target: ast.expr, tokens: Set[str], augment: bool
    ) -> None:
        if isinstance(target, ast.Name):
            if augment:
                tokens = tokens | self.env.get(target.id, set())
            self.env[target.id] = set(tokens)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, tokens, augment)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, tokens, augment)
        # attribute/subscript stores are out of scope for the local env

    # -- expressions -------------------------------------------------------

    def eval(self, node: ast.expr, hex_ok: bool = False) -> Set[str]:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, set()))
        if isinstance(node, ast.Constant):
            return set()
        if isinstance(node, ast.Attribute):
            # Field-sensitive: a report built *from* a nonce is not
            # itself a nonce, so reading a benign field off a tainted
            # object yields no taint.  Only attribute names declared
            # (or inferred) secret-bearing carry tokens; the receiver
            # is still evaluated so sinks nested inside it fire.
            self.eval(node.value, hex_ok)
            kind = self.tainted_attrs.get(node.attr)
            if kind is not None:
                return {kind}
            return set()
        if isinstance(node, ast.Call):
            return self._call(node, hex_ok)
        if isinstance(node, ast.BinOp):
            return self.eval(node.left, hex_ok) | self.eval(node.right, hex_ok)
        if isinstance(node, ast.BoolOp):
            tokens: Set[str] = set()
            for value in node.values:
                tokens |= self.eval(value, hex_ok)
            return tokens
        if isinstance(node, ast.Compare):
            self.eval(node.left, hex_ok)
            for comparator in node.comparators:
                self.eval(comparator, hex_ok)
            return set()
        if isinstance(node, ast.JoinedStr):
            tokens = set()
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    tokens |= self.eval(value.value, hex_ok)
            return tokens
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value, hex_ok)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            tokens = set()
            for element in node.elts:
                tokens |= self.eval(element, hex_ok)
            return tokens
        if isinstance(node, ast.Dict):
            tokens = set()
            for key in node.keys:
                if key is not None:
                    tokens |= self.eval(key, hex_ok)
            for value in node.values:
                tokens |= self.eval(value, hex_ok)
            return tokens
        if isinstance(node, ast.Subscript):
            self.eval(node.slice, hex_ok)
            return self.eval(node.value, hex_ok)
        if isinstance(node, ast.IfExp):
            self.eval(node.test, hex_ok)
            return self.eval(node.body, hex_ok) | self.eval(
                node.orelse, hex_ok
            )
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand, hex_ok)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, hex_ok)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for generator in node.generators:
                self._assign(
                    generator.target, self.eval(generator.iter, hex_ok), False
                )
            return self.eval(node.elt, hex_ok)
        if isinstance(node, ast.DictComp):
            for generator in node.generators:
                self._assign(
                    generator.target, self.eval(generator.iter, hex_ok), False
                )
            return self.eval(node.key, hex_ok) | self.eval(
                node.value, hex_ok
            )
        if isinstance(node, ast.Await):
            return self.eval(node.value, hex_ok)
        return set()

    # -- calls: sources, sinks, sanitizers, summaries ----------------------

    def _call(self, call: ast.Call, hex_ok: bool) -> Set[str]:
        func = call.func
        tail = dotted_tail(func)
        full = dotted_name_of(func)

        # SQLite: parameters map to columns; the allowlisted secret
        # columns are the sanctioned persistence path (and hex() inside
        # them is fine — that is how the key is stored).
        if isinstance(func, ast.Attribute) and func.attr in (
            "execute",
            "executemany",
        ):
            return self._sqlite_call(call)

        if tail in TAINT_SANITIZERS:
            for arg in call.args:
                self.eval(arg, hex_ok)
            for keyword in call.keywords:
                self.eval(keyword.value, hex_ok)
            return set()

        arg_tokens = [self.eval(arg, hex_ok) for arg in call.args]
        kw_tokens = {
            keyword.arg: self.eval(keyword.value, hex_ok)
            for keyword in call.keywords
        }

        # sinks -----------------------------------------------------------
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _LOG_METHODS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.record.logger_names
        ):
            self._sink_all(call, arg_tokens, kw_tokens, "a structured log call")
        elif isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS:
            for name, tokens in kw_tokens.items():
                self._sink(call, tokens, f"the metric label {name!r}")
        elif tail == "span":
            for name, tokens in kw_tokens.items():
                self._sink(call, tokens, f"the span attribute {name!r}")
        elif tail is not None and (
            tail.endswith("Error") or tail.endswith("Exception")
        ):
            self._sink_all(call, arg_tokens, kw_tokens, "an exception message")
        elif full in ("json.dumps", "json.dump"):
            self._sink_all(call, arg_tokens, kw_tokens, "a JSON export")
        elif (
            tail in ("repr", "str", "format", "hex")
            and not hex_ok
            and self.layer not in TAINT_REPR_EXEMPT_LAYERS
        ):
            receiver: Set[str] = set()
            if isinstance(func, ast.Attribute):
                receiver = self.eval(func.value, hex_ok)
            self._sink(
                call,
                receiver.union(*arg_tokens) if arg_tokens else receiver,
                f"{tail}() outside the crypto layer",
            )

        # sources ---------------------------------------------------------
        result: Set[str] = set()
        if tail in SECRET_SOURCE_CALLS:
            result.add(KEY)
        if tail in NONCE_SOURCE_CALLS:
            result.add(NONCE)

        # interprocedural propagation --------------------------------------
        callees = self._typed_callees(func) or self.model.resolve_call(
            self.fn, call
        )
        if callees:
            for callee in callees:
                summary = self.summaries.get(callee.qualname)
                if summary is None:
                    continue
                mapped = self._map_arguments(callee, call, arg_tokens, kw_tokens)
                for token in summary.ret:
                    if token in (KEY, NONCE):
                        result.add(token)
                    elif token.startswith("P"):
                        index = int(token[1:])
                        result |= mapped.get(index, set())
                for index, sinks in summary.param_sinks.items():
                    tokens = mapped.get(index, set())
                    for sink in sinks:
                        for kind in tokens & {KEY, NONCE}:
                            self._report(
                                call,
                                f"{kind}-tainted argument to "
                                f"{callee.name}() reaches {sink.desc} at "
                                f"{sink.relpath}:{sink.line}",
                            )
                        for token in tokens:
                            if token.startswith("P"):
                                self._param_sink(int(token[1:]), sink)
        else:
            # Unresolved call: propagate receiver and argument taint
            # through conservatively (``key.hex()``, ``bytes(key)``, …).
            if isinstance(func, ast.Attribute):
                result |= self.eval(func.value, hex_ok)
            for tokens in arg_tokens:
                result |= tokens
            for tokens in kw_tokens.values():
                result |= tokens
        return result

    def _map_arguments(
        self,
        callee: FunctionInfo,
        call: ast.Call,
        arg_tokens: List[Set[str]],
        kw_tokens: Dict[Optional[str], Set[str]],
    ) -> Dict[int, Set[str]]:
        mapped: Dict[int, Set[str]] = {}
        for index, tokens in enumerate(arg_tokens):
            mapped[index] = tokens
        for name, tokens in kw_tokens.items():
            if name is not None and name in callee.params:
                mapped[callee.params.index(name)] = tokens
        return mapped

    def _sqlite_call(self, call: ast.Call) -> Set[str]:
        columns: Optional[List[str]] = None
        if call.args and isinstance(call.args[0], ast.Constant) and isinstance(
            call.args[0].value, str
        ):
            columns = _sql_parameter_columns(call.args[0].value)
        else:
            for arg in call.args[:1]:
                self._sink(
                    call,
                    self.eval(arg),
                    "a dynamically built SQL statement",
                )
        params: List[ast.expr] = []
        if len(call.args) > 1:
            second = call.args[1]
            if isinstance(second, (ast.Tuple, ast.List)):
                params = list(second.elts)
            else:
                params = [second]
        for index, expression in enumerate(params):
            column = (
                columns[index]
                if columns is not None and index < len(columns)
                else None
            )
            allowed = column in SQLITE_SECRET_COLUMNS
            tokens = self.eval(expression, hex_ok=allowed)
            if tokens and not allowed:
                where = (
                    f"SQLite column {column!r}"
                    if column is not None
                    else f"SQLite parameter {index}"
                )
                self._sink(
                    call,
                    tokens,
                    f"{where} outside the sanctioned column set",
                )
        return set()

    def _sink_all(
        self,
        call: ast.Call,
        arg_tokens: List[Set[str]],
        kw_tokens: Dict[Optional[str], Set[str]],
        desc: str,
    ) -> None:
        combined: Set[str] = set()
        for tokens in arg_tokens:
            combined |= tokens
        for tokens in kw_tokens.values():
            combined |= tokens
        self._sink(call, combined, desc)

    def _sink(self, call: ast.Call, tokens: Set[str], desc: str) -> None:
        for kind in sorted(tokens & {KEY, NONCE}):
            self._report(call, f"{kind}-tainted value reaches {desc}")
        for token in tokens:
            if token.startswith("P"):
                self._param_sink(
                    int(token[1:]),
                    _Sink(desc, self.fn.relpath, getattr(call, "lineno", 1)),
                )

    def _param_sink(self, index: int, sink: _Sink) -> None:
        sinks = self.summary.param_sinks.setdefault(index, [])
        if all(existing.key() != sink.key() for existing in sinks):
            sinks.append(sink)

    def _report(self, node: ast.AST, message: str) -> None:
        if self.collect is None:
            return
        self.collect.add(Finding.at(self.fn.relpath, node, RULE, message, _HINT))


def check(model: ProjectModel) -> Iterator[Finding]:
    findings: Set[Finding] = set()

    # declaration check: raw secret-named dataclass fields
    for klass in model.classes.values():
        for name in SECRET_FIELD_NAMES:
            annotation = klass.fields.get(name)
            if annotation is not None and "Secret" not in annotation:
                findings.add(
                    Finding.at(
                        klass.relpath,
                        klass.field_nodes[name],
                        RULE,
                        f"field {name!r} on {klass.name} holds raw "
                        "secret material — the default repr/str "
                        "prints it",
                        "type the field repro.utils.secret.SecretBytes "
                        "(opaque repr, explicit .reveal())",
                    )
                )

    tainted_attrs = _tainted_attrs(model)
    summaries: Dict[str, _Summary] = {}
    for _ in range(8):
        changed = False
        for fn in model.functions.values():
            scan = _Scan(fn, model, summaries, tainted_attrs, collect=None)
            summary = scan.run()
            previous = summaries.get(fn.qualname)
            if previous is None or previous.state_key() != summary.state_key():
                summaries[fn.qualname] = summary
                changed = True
        if not changed:
            break
    for fn in model.functions.values():
        _Scan(fn, model, summaries, tainted_attrs, collect=findings).run()
    yield from sorted(findings)


def _tainted_attrs(model: ProjectModel) -> Dict[str, str]:
    """Attr name -> taint kind; SecretBytes-typed fields are clean."""
    tainted: Dict[str, str] = {}
    for names, kind in ((SECRET_ATTR_NAMES, KEY), (NONCE_ATTR_NAMES, NONCE)):
        for attr in names:
            annotations = model.field_annotations(attr)
            if not annotations or any(
                "Secret" not in annotation for annotation in annotations
            ):
                tainted[attr] = kind
    return tainted
