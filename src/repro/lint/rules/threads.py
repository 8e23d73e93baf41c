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
from repro.lint.registry import FileContext, Rule, register

_THREAD_MODULES = frozenset({"threading", "concurrent", "multiprocessing"})


@register
class ThreadingRule(Rule):
    id = "SACHA005"
    title = "no threads: threading/concurrent/multiprocessing are not imported"
    rationale = (
        "sweeps, registries and the store are single-threaded and hold no "
        "locks; a thread would reintroduce scheduling nondeterminism and "
        "data races"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                tops = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                tops = {(node.module or "").split(".")[0]}
            else:
                continue
            hit = tops & _THREAD_MODULES
            if hit:
                yield ctx.finding(
                    node,
                    self.id,
                    f"{'/'.join(sorted(hit))} import in a single-threaded "
                    "package",
                    "run the work in order on the calling thread "
                    "(repro.core.swarm.map_sharded)",
                )
