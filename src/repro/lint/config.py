"""Lint configuration: the layer DAG and per-rule scoping.

Everything domain-specific the rules need is declared here rather than
hard-coded in the rule bodies, so adding a package or a taint source is
a one-line, reviewable change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

#: The declared import DAG, by top-level package under ``repro``.
#: ``LAYER_DAG[layer]`` is the set of *other* repro layers that layer may
#: import (importing within your own layer is always allowed); ``None``
#: means unrestricted (the CLI and the public facade compose everything).
#: A layer absent from the map is unrestricted — new top-level packages
#: should be added here deliberately.
LAYER_DAG: Mapping[str, Optional[FrozenSet[str]]] = {
    # foundations — import nothing from repro
    "utils": frozenset(),
    "errors": frozenset(),
    "sim": frozenset(),
    # crypto is pure math plus the pluggable AES backends that repro.perf
    # provides (a deliberate, lazily-imported inversion).  It must never
    # see the network, the observability layer, or the simulator.
    "crypto": frozenset({"utils", "perf"}),
    "fpga": frozenset({"crypto", "utils", "errors"}),
    "design": frozenset({"crypto", "errors", "fpga", "utils"}),
    "obs": frozenset({"errors", "sim"}),
    "net": frozenset({"errors", "obs", "sim", "utils"}),
    "perf": frozenset({"crypto", "errors", "obs", "utils"}),
    # the artifact cache memoizes design builds: it may see the design
    # and fpga layers it caches plus metrics, never core or fleet (which
    # consume it), never the network and never crypto or perf
    "cache": frozenset({"design", "errors", "fpga", "obs", "utils"}),
    "timing": frozenset({"fpga", "utils"}),
    "baselines": frozenset({"crypto", "errors", "fpga", "utils"}),
    "core": frozenset(
        {
            "cache",
            "crypto",
            "design",
            "errors",
            "fpga",
            "net",
            "obs",
            "perf",
            "sim",
            "timing",
            "utils",
        }
    ),
    "system": frozenset({"core", "crypto", "errors", "utils"}),
    # the fleet control plane composes sessions, persistence and
    # telemetry above core — it sits beside analysis, below the CLI
    "fleet": frozenset(
        {
            "cache",
            "core",
            "crypto",
            "design",
            "errors",
            "fpga",
            "net",
            "obs",
            "perf",
            "sim",
            "utils",
        }
    ),
    "attacks": frozenset(
        {"baselines", "core", "crypto", "design", "errors", "fpga", "utils"}
    ),
    "analysis": frozenset(
        {"attacks", "core", "design", "errors", "fpga", "sim", "timing", "utils"}
    ),
    # the linter itself stays at the bottom of the stack
    "lint": frozenset({"errors", "utils"}),
    # composition roots — unrestricted
    "cli": None,
    "__main__": None,
    "repro": None,  # the package facade (repro/__init__.py)
}

#: Paths where SACHA001 does not apply: the one sanctioned wall-clock
#: accessor (export metadata only — never span timing or protocol state)
#: and the linter's own ``--stats`` timer (tool diagnostics, not part of
#: any reproducible artifact).
DETERMINISM_EXEMPT: Tuple[str, ...] = (
    "repro/obs/wallclock.py",
    "repro/lint/stats.py",
)

#: Path prefixes where SACHA002 applies.  MAC/tag/digest equality in
#: these trees must go through ``hmac.compare_digest``.  The baselines
#: package deliberately reproduces *other papers'* protocols and is out
#: of scope.
CONSTANT_TIME_PATHS: Tuple[str, ...] = (
    "repro/crypto/",
    "repro/core/",
    "repro/fleet/",
    "repro/net/arq.py",
    "repro/system/",
)

# -- whole-program tier declarations (SACHA006, SACHA008) -----------------------
#
# The interprocedural passes are configured here, exactly like the
# per-file rules: adding a taint source, a sanctioned SQLite column, or
# a new wire-header constant is a one-line reviewable edit, never a rule
# change.

#: SACHA006: calls whose return value *is* key material.  Matched by the
#: call's final name component, so ``provider.mac_key()``,
#: ``slot.derive_key(...)`` and ``secret.reveal()`` all seed KEY taint.
SECRET_SOURCE_CALLS: Tuple[str, ...] = (
    "enroll_device",
    "derive_key",
    "derive_mac_key",
    "mac_key",
    "reveal",
)

#: SACHA006: calls whose return value is a protocol nonce.
NONCE_SOURCE_CALLS: Tuple[str, ...] = ("new_nonce",)

#: SACHA006: attribute reads that carry KEY taint — unless every class
#: in the project that declares the attribute types it ``SecretBytes``
#: (the sanctioned opaque boundary).
SECRET_ATTR_NAMES: Tuple[str, ...] = ("mac_key", "key_hex")

#: SACHA006: attribute reads that carry NONCE taint.
NONCE_ATTR_NAMES: Tuple[str, ...] = ("nonce",)

#: SACHA006: dataclass fields with these names must not be raw
#: ``bytes``/``str`` — a default dataclass repr would print the secret.
SECRET_FIELD_NAMES: Tuple[str, ...] = ("mac_key", "key_hex")

#: SACHA006: calls that stop taint.  ``SecretBytes`` wraps (opaque
#: repr), ``redact`` replaces the value with a placeholder, and the
#: rest return values that cannot reconstruct the secret.
TAINT_SANITIZERS: Tuple[str, ...] = (
    "redact",
    "SecretBytes",
    "compare_digest",
    "len",
    "type",
    "bool",
    "id",
)

#: SACHA006: the only SQLite columns sanctioned to hold secret-derived
#: hex (the enrolled key and the per-attestation nonce/tag audit trail).
SQLITE_SECRET_COLUMNS: Tuple[str, ...] = ("key_hex", "nonce_hex", "tag_hex")

#: SACHA006: layers where ``hex()``/``repr()``/``str()`` of key material
#: is legitimate — the key's home, where MACs are computed.
TAINT_REPR_EXEMPT_LAYERS: Tuple[str, ...] = ("crypto",)

#: SACHA008: the wire-protocol module(s): OPCODE_* constants, encoders,
#: and the ``decode_*`` dispatchers all live here.
WIRE_PROTOCOL_MODULES: Tuple[str, ...] = ("repro/net/messages.py",)

#: SACHA008: modules holding derived header-size constants, and which
#: opcode's encoder each constant must agree with (constant = 1 opcode
#: byte + the encoder's fixed-width field bytes).
WIRE_HEADER_MODULES: Tuple[str, ...] = ("repro/net/batch.py",)
WIRE_HEADER_OPCODES: Mapping[str, str] = {
    "READBACK_BATCH_HEADER_BYTES": "OPCODE_ICAP_READBACK_BATCH",
    "CONFIG_BATCH_HEADER_BYTES": "OPCODE_ICAP_CONFIG_BATCH",
    "BATCH_RESPONSE_HEADER_BYTES": "OPCODE_READBACK_BATCH_RESPONSE",
}


@dataclass(frozen=True)
class LintConfig:
    """Immutable configuration for one lint run."""

    select: FrozenSet[str] = frozenset()  #: rule ids to run; empty = all
    layer_dag: Mapping[str, Optional[FrozenSet[str]]] = field(
        default_factory=lambda: LAYER_DAG
    )
    determinism_exempt: Tuple[str, ...] = DETERMINISM_EXEMPT
    constant_time_paths: Tuple[str, ...] = CONSTANT_TIME_PATHS
    secret_source_calls: Tuple[str, ...] = SECRET_SOURCE_CALLS
    nonce_source_calls: Tuple[str, ...] = NONCE_SOURCE_CALLS
    secret_attr_names: Tuple[str, ...] = SECRET_ATTR_NAMES
    nonce_attr_names: Tuple[str, ...] = NONCE_ATTR_NAMES
    secret_field_names: Tuple[str, ...] = SECRET_FIELD_NAMES
    taint_sanitizers: Tuple[str, ...] = TAINT_SANITIZERS
    sqlite_secret_columns: Tuple[str, ...] = SQLITE_SECRET_COLUMNS
    taint_repr_exempt_layers: Tuple[str, ...] = TAINT_REPR_EXEMPT_LAYERS
    wire_protocol_modules: Tuple[str, ...] = WIRE_PROTOCOL_MODULES
    wire_header_modules: Tuple[str, ...] = WIRE_HEADER_MODULES
    wire_header_opcodes: Mapping[str, str] = field(
        default_factory=lambda: WIRE_HEADER_OPCODES
    )

    def selects(self, rule_id: str) -> bool:
        return not self.select or rule_id in self.select


DEFAULT_CONFIG = LintConfig()
