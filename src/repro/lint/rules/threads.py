"""SACHA005: the package is single-threaded.

Every sweep runs its members one after another, and the reproducibility
argument (event order in the simulator, RNG forks, metric snapshots)
assumes one thread.  Nothing in the package holds a lock, so importing
``threading``, ``concurrent`` or ``multiprocessing`` anywhere is a
finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.program import ProjectModel

RULE = "SACHA005"

_THREAD_MODULES = frozenset({"threading", "concurrent", "multiprocessing"})


def check(model: ProjectModel) -> Iterator[Finding]:
    for record in model.files.values():
        for node in ast.walk(record.tree):
            if isinstance(node, ast.Import):
                tops = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                tops = {(node.module or "").split(".")[0]}
            else:
                continue
            hit = tops & _THREAD_MODULES
            if hit:
                yield Finding.at(
                    record.relpath,
                    node,
                    RULE,
                    f"{'/'.join(sorted(hit))} import in a single-threaded "
                    "package",
                    "run the work in order on the calling thread "
                    "(repro.core.swarm.map_sharded)",
                )
