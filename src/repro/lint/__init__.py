"""``sachalint`` — domain-aware static analysis for the SACHa reproduction.

The Python type system cannot see the invariants SACHa's security
argument rests on: attestation runs must be bit-for-bit reproducible
across processes, MAC comparisons must not leak timing, the crypto
layer must stay free of network or observability dependencies, and the
MAC key must never leave the PUF, the enrollment record and the MAC
engines.  Two of those have already bitten this repo
(``DeterministicRng.fork`` once used the per-process salted ``hash()``;
the verifier compared tags with ``==``), so the checks live here as AST
rules rather than as a checklist someone must remember.

Six rules run on every lint, over one :class:`ProjectModel` built from
a single parse of each file:

* ``SACHA001`` determinism — no wall clock or unseeded randomness;
* ``SACHA002`` constant-time crypto — tags compared via ``compare_digest``;
* ``SACHA003`` mutable defaults — the ``SessionOptions`` bug class;
* ``SACHA004`` import layering — the declared layer DAG;
* ``SACHA005`` single thread — no ``threading``, ``concurrent`` or
  ``multiprocessing`` imports;
* ``SACHA006`` secret taint — key/nonce material never reaches logs,
  telemetry, exceptions, repr/hex, or unsanctioned SQLite columns
  (interprocedural, over the model's import and call graphs).

Every finding is reported: there is no baseline, no inline suppression
and no rule selection.  Entry points: ``repro lint [PATHS]`` on the
command line, :func:`run_lint` from code, and :func:`lint_sources` for
an in-memory ``{relpath: source}`` tree.
"""

from repro.lint.engine import LintResult, lint_sources, run_lint
from repro.lint.findings import Finding
from repro.lint.program import ProjectModel

__all__ = [
    "Finding",
    "LintResult",
    "ProjectModel",
    "lint_sources",
    "run_lint",
]
