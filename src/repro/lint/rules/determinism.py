"""SACHA001: no wall clock, no unseeded randomness, no builtin ``hash()``.

Attestation transcripts, span logs, and experiment tables must be
regenerable bit-for-bit: two CLI invocations with the same seed have to
agree byte-for-byte across processes and machines.  Three stdlib
conveniences silently break that:

* wall-clock reads (``time.time``, ``datetime.now``, …) differ per run;
* the module-level ``random`` functions and unseeded generators draw
  from interpreter-global, OS-seeded state;
* builtin ``hash()`` is salted per process (PYTHONHASHSEED) — the exact
  bug ``DeterministicRng.fork`` shipped with before PR 2 fixed it to
  derive child seeds via SHA-256.

Sim and protocol code must take time from the simulator clock and
randomness from an explicitly seeded :class:`repro.utils.rng.DeterministicRng`
(or a seeded ``random.Random`` / ``numpy`` generator).  The only module
exempt is the obs wall-clock shim, which exists so export *metadata* can
carry a real timestamp without the rest of the tree ever touching one.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.config import DETERMINISM_EXEMPT
from repro.lint.findings import Finding
from repro.lint.program import ProjectModel, dotted_name_of

RULE = "SACHA001"

_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
    }
)

#: matched against the last two dotted components, so both
#: ``datetime.now()`` (from-import) and ``datetime.datetime.now()`` hit.
_DATETIME_TAILS = frozenset(
    {
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("datetime", "today"),
        ("date", "today"),
    }
)

_NONDETERMINISTIC = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.token_urlsafe",
        "secrets.randbelow",
        "secrets.choice",
    }
)

#: ``numpy.random`` module-level functions draw from the global unseeded
#: generator; seeded constructors (``Generator``, ``Philox``, seeded
#: ``default_rng``) are fine.
_NP_RANDOM_BANNED = frozenset(
    {
        "bytes",
        "choice",
        "normal",
        "permutation",
        "rand",
        "randint",
        "randn",
        "random",
        "random_sample",
        "seed",
        "shuffle",
        "standard_normal",
        "uniform",
    }
)

_HINT = (
    "draw time from the sim clock and randomness from a seeded "
    "DeterministicRng (repro.utils.rng); derive stable hashes with hashlib"
)


def check(model: ProjectModel) -> Iterator[Finding]:
    for record in model.files.values():
        if record.relpath.startswith(DETERMINISM_EXEMPT):
            continue
        for node in ast.walk(record.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name_of(node.func)
            if name is None:
                continue
            message = _violation(name, node)
            if message:
                yield Finding.at(record.relpath, node, RULE, message, _HINT)


def _violation(name: str, call: ast.Call) -> str:
    parts = name.split(".")
    if name == "hash":
        return (
            "builtin hash() is salted per process — the same value "
            "hashes differently in every interpreter"
        )
    if name in _WALL_CLOCK:
        return f"wall-clock read {name}() is not reproducible"
    if name in _NONDETERMINISTIC:
        return f"{name}() is nondeterministic by design"
    if len(parts) >= 2 and (parts[-2], parts[-1]) in _DATETIME_TAILS:
        return f"wall-clock read {name}() is not reproducible"
    if parts[0] == "random" and len(parts) == 2:
        if parts[1] in ("Random", "SystemRandom"):
            if parts[1] == "SystemRandom":
                return "random.SystemRandom draws from the OS entropy pool"
            if not call.args and not call.keywords:
                return "random.Random() without a seed is process-global state"
            return ""
        return (
            f"module-level random.{parts[1]}() uses the interpreter-"
            "global, OS-seeded generator"
        )
    if (
        len(parts) >= 3
        and parts[0] in ("np", "numpy")
        and parts[-2] == "random"
    ):
        function = parts[-1]
        if function in _NP_RANDOM_BANNED:
            return (
                f"numpy global-state RNG call {name}() is unseeded; "
                "construct a seeded Generator instead"
            )
        if function == "default_rng" and not call.args and not call.keywords:
            return "default_rng() without a seed is entropy-seeded"
    return ""
