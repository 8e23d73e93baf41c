"""Built-in sachalint rules.  Importing this package registers them.

SACHA001-005 are the per-file tier; SACHA006 is the whole-program tier
and registers in its own registry (``all_program_rules``) so the fast
per-file runs never pay for it.
"""

from repro.lint.rules.constant_time import ConstantTimeRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.mutable_defaults import MutableDefaultsRule
from repro.lint.rules.secret_taint import SecretTaintRule
from repro.lint.rules.threads import ThreadingRule

__all__ = [
    "ConstantTimeRule",
    "DeterminismRule",
    "LayeringRule",
    "MutableDefaultsRule",
    "SecretTaintRule",
    "ThreadingRule",
]
