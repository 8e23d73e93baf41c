"""Built-in sachalint rules.  Importing this package registers them.

SACHA001-005 are the per-file tier; SACHA006 and SACHA008 are the
whole-program tier and register in their own registry (``all_program_rules``) so the
fast per-file runs never pay for them.
"""

from repro.lint.rules.constant_time import ConstantTimeRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.mutable_defaults import MutableDefaultsRule
from repro.lint.rules.secret_taint import SecretTaintRule
from repro.lint.rules.threads import ThreadingRule
from repro.lint.rules.wire_consistency import WireConsistencyRule

__all__ = [
    "ConstantTimeRule",
    "DeterminismRule",
    "LayeringRule",
    "MutableDefaultsRule",
    "SecretTaintRule",
    "ThreadingRule",
    "WireConsistencyRule",
]
