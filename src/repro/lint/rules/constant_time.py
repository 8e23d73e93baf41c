"""SACHA002: MAC/tag/digest comparisons must be constant-time.

``==`` on ``bytes`` short-circuits at the first differing byte, so the
time a verifier takes to reject a forged tag reveals how long a correct
prefix the attacker has — the classic remote-timing oracle against MAC
verification (Lawson/Nelson 2009 era; still routinely rediscovered).
Inside the scoped trees (the crypto layer, the verifier, the ARQ frame
check, and the combined FPGA+processor system) every equality on a
tag-typed value must go through :func:`hmac.compare_digest`.

The rule is lexical about what "tag-typed" means: either comparand is an
identifier (or a call to one) whose snake_case words include ``tag``,
``mac``, ``digest``, ``hmac``, ``cmac``, ``sig`` or ``signature``.
ALL-CAPS names are exempt — those are protocol constants (opcodes), and
comparing an opcode is dispatch, not verification.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import CONSTANT_TIME_PATHS
from repro.lint.findings import Finding
from repro.lint.program import ProjectModel, dotted_tail

RULE = "SACHA002"

_TAG_WORDS = frozenset(
    {"tag", "mac", "digest", "hmac", "cmac", "sig", "signature"}
)

_HINT = (
    "use hmac.compare_digest(a, b) — it examines every byte regardless "
    "of where the first mismatch is"
)


def _is_tag_typed(node: ast.AST) -> bool:
    identifier = dotted_tail(node)
    if identifier is None or identifier.isupper():
        return False
    words = identifier.lower().split("_")
    return any(word in _TAG_WORDS for word in words)


def check(model: ProjectModel) -> Iterator[Finding]:
    for record in model.files.values():
        if not record.relpath.startswith(CONSTANT_TIME_PATHS):
            continue
        for node in ast.walk(record.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                tagged = next(
                    (side for side in (left, right) if _is_tag_typed(side)), None
                )
                if tagged is None:
                    continue
                operator = "==" if isinstance(op, ast.Eq) else "!="
                yield Finding.at(
                    record.relpath,
                    node,
                    RULE,
                    f"{operator} on {dotted_tail(tagged)!r} leaks timing; "
                    "MAC-typed values must be compared in constant time",
                    _HINT,
                )
