"""Fleet attestation control plane: persistent registry + sweeps.

The single-session layers below (``repro.core.net_session`` drives one
device; ``repro.core.swarm`` sweeps an in-memory fleet) forget
everything when the process exits.  This package is the durable half a
control plane needs:

* :mod:`repro.fleet.store` — a SQLite device registry (key material,
  per-run attestation history, verdict/failure event rows) with
  versioned, idempotent migrations;
* :mod:`repro.fleet.controller` — sweeps over
  ``NetworkAttestationSession``s, one device after another, with every
  verdict and the sweep's metrics snapshot persisted;
* :mod:`repro.fleet.cli` — the ``repro fleet`` ops surface
  (enroll/attest/status/history/health).

See ``docs/FLEET.md``.
"""

from repro.fleet.controller import (
    FleetController,
    FleetDeviceOutcome,
    FleetSweepResult,
)
from repro.fleet.store import (
    MIGRATIONS,
    SCHEMA_VERSION,
    AttestationRow,
    DeviceRecord,
    FleetStore,
    Migration,
    SweepRow,
    migrate,
    schema_version,
)

__all__ = [
    "AttestationRow",
    "DeviceRecord",
    "FleetController",
    "FleetDeviceOutcome",
    "FleetStore",
    "FleetSweepResult",
    "MIGRATIONS",
    "Migration",
    "SCHEMA_VERSION",
    "SweepRow",
    "migrate",
    "schema_version",
]
