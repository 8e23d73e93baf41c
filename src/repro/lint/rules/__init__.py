"""The sachalint rules, in id order.

Each rule module exposes ``check(model)``, which yields every finding of
that rule over a :class:`repro.lint.program.ProjectModel`; :data:`RULES`
is the whole catalogue and the engine runs all of it on every lint.
"""

from typing import Tuple

from repro.lint.program import Rule
from repro.lint.rules import (
    constant_time,
    determinism,
    layering,
    mutable_defaults,
    secret_taint,
    threads,
)

RULES: Tuple[Rule, ...] = (
    determinism.check,  # SACHA001
    constant_time.check,  # SACHA002
    mutable_defaults.check,  # SACHA003
    layering.check,  # SACHA004
    threads.check,  # SACHA005
    secret_taint.check,  # SACHA006
)
