"""Every rule's exact findings on the violating tree, pinned.

The tree holds each known-bad fixture in its rule's scoped directory
plus one key leak (``tests/lint/conftest.py::violating_tree``).  The
tuples below are what the two-tier linter reported on that tree before
its six rules became one pass; a rule that gains or loses reach shows up
here as a diff, down to the column and the hint.
"""

from __future__ import annotations

from repro.lint import run_lint

HINT_001 = (
    "draw time from the sim clock and randomness from a seeded "
    "DeterministicRng (repro.utils.rng); derive stable hashes with hashlib"
)
HINT_002 = (
    "use hmac.compare_digest(a, b) — it examines every byte regardless "
    "of where the first mismatch is"
)
HINT_003 = (
    "default to None and build the object inside, or use "
    "dataclasses.field(default_factory=...)"
)
HINT_004 = (
    "invert the dependency or amend the layer DAG in repro.lint.config "
    "with a rationale"
)
HINT_005 = (
    "run the work in order on the calling thread "
    "(repro.core.swarm.map_sharded)"
)
HINT_006 = (
    "route the value through repro.utils.secret (SecretBytes wraps it "
    "opaquely, redact() yields a loggable placeholder), or drop it"
)

#: (rule, path, line, column, message, hint), in report order.
PINNED = [
    ("SACHA006", "repro/core/leak.py", 6, 5,
     "KEY-tainted value reaches a structured log call", HINT_006),
    ("SACHA003", "repro/core/sacha003.py", 6, 25,
     "mutable default in collect() is shared by every call", HINT_003),
    ("SACHA003", "repro/core/sacha003.py", 11, 23,
     "mutable default in tally() is shared by every call", HINT_003),
    ("SACHA003", "repro/core/sacha003.py", 19, 34,
     "mutable default on dataclass Options is shared by every instance",
     HINT_003),
    ("SACHA002", "repro/crypto/sacha002.py", 5, 12,
     "== on 'expected_mac' leaks timing; MAC-typed values must be "
     "compared in constant time", HINT_002),
    ("SACHA002", "repro/crypto/sacha002.py", 9, 8,
     "!= on 'received_digest' leaks timing; MAC-typed values must be "
     "compared in constant time", HINT_002),
    ("SACHA004", "repro/crypto/sacha004.py", 7, 1,
     "layer 'crypto' must not import repro.net (allowed: perf, utils)",
     HINT_004),
    ("SACHA004", "repro/crypto/sacha004.py", 11, 5,
     "layer 'crypto' must not import repro.obs (allowed: perf, utils)",
     HINT_004),
    ("SACHA005", "repro/fpga/sacha005.py", 3, 1,
     "multiprocessing import in a single-threaded package", HINT_005),
    ("SACHA005", "repro/fpga/sacha005.py", 4, 1,
     "threading import in a single-threaded package", HINT_005),
    ("SACHA005", "repro/fpga/sacha005.py", 5, 1,
     "concurrent import in a single-threaded package", HINT_005),
    ("SACHA001", "repro/sim/sacha001.py", 11, 15,
     "wall-clock read time.time() is not reproducible", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 12, 13,
     "wall-clock read datetime.now() is not reproducible", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 17, 14,
     "module-level random.random() uses the interpreter-global, "
     "OS-seeded generator", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 18, 17,
     "random.Random() without a seed is process-global state", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 19, 13,
     "numpy global-state RNG call np.random.randint() is unseeded; "
     "construct a seeded Generator instead", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 20, 11,
     "default_rng() without a seed is entropy-seeded", HINT_001),
    ("SACHA001", "repro/sim/sacha001.py", 25, 12,
     "builtin hash() is salted per process — the same value hashes "
     "differently in every interpreter", HINT_001),
]


def test_every_rule_reports_exactly_its_pinned_findings(violating_tree):
    result = run_lint([violating_tree])
    assert [
        (f.rule, f.path, f.line, f.column, f.message, f.hint)
        for f in result.findings
    ] == PINNED
    assert result.files_scanned == 6
    assert result.exit_code == 1
