"""Persistent device registry for the fleet attestation control plane.

One verifier session attests one board; a fleet service operates
millions.  The difference is durable state: which devices exist, the
key material they were provisioned with, what every past sweep
concluded about each of them, and the telemetry the verdicts came
from.  :class:`FleetStore` keeps all of that in a single SQLite file
(stdlib ``sqlite3`` — no new dependencies) behind a small typed API.

Design points:

* **Schema versioning with an idempotent migration runner.**  Every
  schema change is a :class:`Migration` with a monotonically increasing
  version; applied versions are recorded in ``fleet_schema_migrations``
  and re-running the runner applies nothing.  Opening an old database
  upgrades it in place, one transaction per migration.
* **Deterministic by construction.**  No wall-clock timestamps anywhere
  (sachalint's SACHA001 would reject them): freshness is measured in
  *sweep generations* — the monotonically increasing ``sweep_id`` — so
  "stale" means "not attested recently in sweep order", which is also
  what a seeded simulation can reproduce bit-for-bit.
* **One transaction per record.**  Every logical record (an
  attestation row plus its verdict event row) commits in a single
  transaction on the store's one connection, so a crash never leaves
  half a record behind.  The connection keeps sqlite3's default
  same-thread check: a store shared across threads fails closed.
* **Verdict history as queryable rows.**  Each attestation stores the
  full three-way verdict, the MAC tag, the structured failure reason,
  and the mismatched frames; ``events`` adds an append-only audit trail
  (enrollments, sweep lifecycle, per-device verdicts) that the
  post-quantum evidence-log roadmap item will chain from.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.core.report import AttestationReport, Verdict
from repro.errors import FleetError
from repro.utils.secret import SecretBytes

#: Current schema version — the highest :class:`Migration` version.
SCHEMA_VERSION = 2


@dataclass(frozen=True)
class Migration:
    """One schema step: DDL statements applied atomically, once."""

    version: int
    name: str
    statements: Tuple[str, ...]


MIGRATIONS: Tuple[Migration, ...] = (
    Migration(
        version=1,
        name="device-registry",
        statements=(
            """
            CREATE TABLE devices (
                device_id TEXT PRIMARY KEY,
                part TEXT NOT NULL,
                seed INTEGER NOT NULL,
                key_mode TEXT NOT NULL,
                key_hex TEXT NOT NULL,
                tampered INTEGER NOT NULL DEFAULT 0
            )
            """,
            """
            CREATE TABLE sweeps (
                sweep_id INTEGER PRIMARY KEY AUTOINCREMENT,
                seed INTEGER NOT NULL,
                profile TEXT NOT NULL DEFAULT '',
                workers INTEGER NOT NULL DEFAULT 1,
                device_count INTEGER NOT NULL DEFAULT 0,
                completed INTEGER NOT NULL DEFAULT 0
            )
            """,
            """
            CREATE TABLE attestations (
                attestation_id INTEGER PRIMARY KEY AUTOINCREMENT,
                sweep_id INTEGER NOT NULL REFERENCES sweeps(sweep_id),
                device_id TEXT NOT NULL REFERENCES devices(device_id),
                verdict TEXT NOT NULL,
                mac_valid INTEGER NOT NULL,
                config_match INTEGER NOT NULL,
                attempts INTEGER NOT NULL DEFAULT 1,
                duration_ns REAL NOT NULL DEFAULT 0,
                tag_hex TEXT NOT NULL DEFAULT '',
                nonce_hex TEXT NOT NULL DEFAULT '',
                mismatched_frames TEXT NOT NULL DEFAULT '[]',
                failure_stage TEXT NOT NULL DEFAULT '',
                failure_kind TEXT NOT NULL DEFAULT '',
                failure_detail TEXT NOT NULL DEFAULT ''
            )
            """,
            """
            CREATE INDEX idx_attestations_device
                ON attestations(device_id, attestation_id)
            """,
        ),
    ),
    Migration(
        version=2,
        name="events-and-sweep-snapshots",
        statements=(
            """
            CREATE TABLE events (
                event_id INTEGER PRIMARY KEY AUTOINCREMENT,
                sweep_id INTEGER,
                device_id TEXT,
                kind TEXT NOT NULL,
                detail TEXT NOT NULL DEFAULT ''
            )
            """,
            """
            CREATE INDEX idx_events_device ON events(device_id, event_id)
            """,
            "ALTER TABLE sweeps ADD COLUMN snapshot_json TEXT",
        ),
    ),
)


def migrate(
    conn: sqlite3.Connection, target_version: Optional[int] = None
) -> List[int]:
    """Apply every pending migration up to ``target_version`` (or all).

    Idempotent: versions recorded in ``fleet_schema_migrations`` are
    skipped, so running the runner twice applies nothing the second
    time.  Each migration commits atomically — a failure leaves the
    database at the previous version, never half-migrated.  Returns the
    versions applied by *this* call (empty when up to date).
    """
    conn.execute(
        "CREATE TABLE IF NOT EXISTS fleet_schema_migrations ("
        "version INTEGER PRIMARY KEY, name TEXT NOT NULL)"
    )
    applied = {
        row[0]
        for row in conn.execute("SELECT version FROM fleet_schema_migrations")
    }
    newly_applied: List[int] = []
    previous = 0
    for migration in MIGRATIONS:
        if migration.version <= previous:
            raise FleetError(
                f"migrations out of order: version {migration.version} "
                f"after {previous}"
            )
        previous = migration.version
        if target_version is not None and migration.version > target_version:
            break
        if migration.version in applied:
            continue
        with conn:
            for statement in migration.statements:
                conn.execute(statement)
            conn.execute(
                "INSERT INTO fleet_schema_migrations (version, name) "
                "VALUES (?, ?)",
                (migration.version, migration.name),
            )
        newly_applied.append(migration.version)
    return newly_applied


def schema_version(conn: sqlite3.Connection) -> int:
    """The highest migration version applied to this database (0 = none)."""
    try:
        row = conn.execute(
            "SELECT MAX(version) FROM fleet_schema_migrations"
        ).fetchone()
    except sqlite3.OperationalError:
        return 0
    return int(row[0]) if row and row[0] is not None else 0


@dataclass(frozen=True)
class DeviceRecord:
    """One enrolled device: everything needed to re-materialize it.

    The enrolled key is held as an opaque :class:`SecretBytes` — the
    record's repr shows ``<secret[16]>``, and only the store's
    ``enroll`` persistence path reveals it (into the sanctioned
    ``key_hex`` column).
    """

    device_id: str
    part: str
    seed: int
    key_mode: str
    key: SecretBytes
    tampered: bool = False


@dataclass(frozen=True)
class AttestationRow:
    """One persisted attestation outcome."""

    attestation_id: int
    sweep_id: int
    device_id: str
    verdict: str
    mac_valid: bool
    config_match: bool
    attempts: int
    duration_ns: float
    tag_hex: str
    nonce_hex: str
    mismatched_frames: Tuple[int, ...]
    failure_stage: str
    failure_kind: str
    failure_detail: str


@dataclass(frozen=True)
class SweepRow:
    """One recorded sweep (a fleet-wide attestation pass)."""

    sweep_id: int
    seed: int
    profile: str
    device_count: int
    completed: bool


#: Re-attestation priority classes, in scheduling order: an INCONCLUSIVE
#: verdict means the verifier learned *nothing* and must try again
#: first; a never-attested device has no history at all; a rejected
#: device is re-checked before re-confirming known-healthy ones.
_PRIORITY = {
    Verdict.INCONCLUSIVE.value: 0,
    None: 1,  # never attested
    Verdict.REJECT.value: 2,
    Verdict.ACCEPT.value: 3,
}


class _RowReader:
    """Typed reads of one registry row that fail closed.

    SQLite keeps whatever a writer put in a column, so every read checks
    the storage type, and a malformed column raises :class:`FleetError`.
    The message names the device and the column, never the value: a
    malformed column may hold key material.
    """

    def __init__(self, table: str, row: sqlite3.Row) -> None:
        self._table = table
        self._row = row

    def malformed(self, column: str) -> FleetError:
        device_id = self._row["device_id"]
        device = repr(device_id) if isinstance(device_id, str) else "?"
        return FleetError(
            f"{self._table} row of device {device} has a malformed "
            f"{column!r} column"
        )

    def _typed(self, column: str, kind: Union[type, Tuple[type, ...]]):
        value = self._row[column]
        if not isinstance(value, kind):
            raise self.malformed(column)
        return value

    def text(self, column: str) -> str:
        return self._typed(column, str)

    def integer(self, column: str) -> int:
        return self._typed(column, int)

    def real(self, column: str) -> float:
        return float(self._typed(column, (int, float)))


class FleetStore:
    """SQLite-backed device registry + attestation history.

    One connection; each record commits in one transaction.
    """

    def __init__(self, path: str) -> None:
        self._path = str(path)
        try:
            self._conn = sqlite3.connect(self._path, timeout=30.0)
        except sqlite3.Error as exc:
            raise FleetError(f"cannot open fleet store {path!r}: {exc}") from exc
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA foreign_keys = ON")
        migrate(self._conn)

    # -- lifecycle -----------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._path

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "FleetStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- devices -------------------------------------------------------------------

    def enroll(self, device: DeviceRecord) -> None:
        """Register a device; its key material never changes afterwards."""
        try:
            with self._conn:
                self._conn.execute(
                    "INSERT INTO devices "
                    "(device_id, part, seed, key_mode, key_hex, tampered) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (
                        device.device_id,
                        device.part,
                        device.seed,
                        device.key_mode,
                        device.key.reveal().hex(),
                        int(device.tampered),
                    ),
                )
                self._conn.execute(
                    "INSERT INTO events (sweep_id, device_id, kind, detail)"
                    " VALUES (NULL, ?, 'enrolled', ?)",
                    (device.device_id, f"part={device.part}"),
                )
        except sqlite3.IntegrityError:
            raise FleetError(
                f"device {device.device_id!r} is already enrolled"
            ) from None

    def get_device(self, device_id: str) -> DeviceRecord:
        row = self._conn.execute(
            "SELECT * FROM devices WHERE device_id = ?", (device_id,)
        ).fetchone()
        if row is None:
            raise FleetError(f"device {device_id!r} is not enrolled")
        return self._device_from_row(row)

    def devices(self) -> List[DeviceRecord]:
        rows = self._conn.execute(
            "SELECT * FROM devices ORDER BY device_id"
        ).fetchall()
        return [self._device_from_row(row) for row in rows]

    @property
    def device_count(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM devices").fetchone()
        return int(row[0])

    @staticmethod
    def _device_from_row(row: sqlite3.Row) -> DeviceRecord:
        """The device a row describes; :class:`FleetError` if malformed."""
        read = _RowReader("devices", row)
        try:
            key = SecretBytes.fromhex(read.text("key_hex"))
        except ValueError:
            raise read.malformed("key_hex") from None
        return DeviceRecord(
            device_id=read.text("device_id"),
            part=read.text("part"),
            seed=read.integer("seed"),
            key_mode=read.text("key_mode"),
            key=key,
            tampered=bool(read.integer("tampered")),
        )

    # -- sweeps --------------------------------------------------------------------

    def begin_sweep(self, seed: int, profile: str, device_count: int) -> int:
        """Open a sweep row; returns its monotonically increasing id."""
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO sweeps (seed, profile, device_count) "
                "VALUES (?, ?, ?)",
                (seed, profile, device_count),
            )
            sweep_id = int(cursor.lastrowid or 0)
            self._conn.execute(
                "INSERT INTO events (sweep_id, device_id, kind, detail) "
                "VALUES (?, NULL, 'sweep_started', ?)",
                (sweep_id, f"devices={device_count}"),
            )
        return sweep_id

    def finish_sweep(self, sweep_id: int, snapshot: Optional[dict]) -> None:
        """Mark a sweep complete and persist its metrics snapshot."""
        snapshot_json = (
            json.dumps(snapshot, sort_keys=True) if snapshot is not None else None
        )
        with self._conn:
            updated = self._conn.execute(
                "UPDATE sweeps SET completed = 1, snapshot_json = ? "
                "WHERE sweep_id = ?",
                (snapshot_json, sweep_id),
            ).rowcount
            if updated != 1:
                raise FleetError(f"no sweep {sweep_id} to finish")
            self._conn.execute(
                "INSERT INTO events (sweep_id, device_id, kind) "
                "VALUES (?, NULL, 'sweep_completed')",
                (sweep_id,),
            )

    def sweeps(self) -> List[SweepRow]:
        rows = self._conn.execute(
            "SELECT sweep_id, seed, profile, device_count, completed"
            " FROM sweeps ORDER BY sweep_id"
        ).fetchall()
        return [
            SweepRow(
                sweep_id=int(row["sweep_id"]),
                seed=int(row["seed"]),
                profile=row["profile"],
                device_count=int(row["device_count"]),
                completed=bool(row["completed"]),
            )
            for row in rows
        ]

    def latest_snapshot(self) -> Optional[dict]:
        """The metrics snapshot of the newest completed sweep."""
        row = self._conn.execute(
            "SELECT snapshot_json FROM sweeps "
            "WHERE completed = 1 AND snapshot_json IS NOT NULL "
            "ORDER BY sweep_id DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return json.loads(row["snapshot_json"])

    # -- attestation history -------------------------------------------------------

    def record_attestation(
        self,
        sweep_id: int,
        device_id: str,
        report: AttestationReport,
        tag: Optional[bytes] = None,
        duration_ns: float = 0.0,
        attempts: int = 1,
    ) -> int:
        """Persist one attestation outcome atomically.

        The attestation row and its verdict event commit in a single
        transaction.
        """
        failure = report.failure
        with self._conn:
            cursor = self._conn.execute(
                "INSERT INTO attestations (sweep_id, device_id, verdict, "
                "mac_valid, config_match, attempts, duration_ns, tag_hex, "
                "nonce_hex, mismatched_frames, failure_stage, failure_kind, "
                "failure_detail) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    sweep_id,
                    device_id,
                    report.verdict.value,
                    int(report.mac_valid),
                    int(report.config_match),
                    attempts,
                    duration_ns,
                    tag.hex() if tag else "",
                    report.nonce.hex(),
                    json.dumps(list(report.mismatched_frames)),
                    failure.stage if failure else "",
                    failure.kind if failure else "",
                    failure.detail if failure else "",
                ),
            )
            attestation_id = int(cursor.lastrowid or 0)
            self._conn.execute(
                "INSERT INTO events (sweep_id, device_id, kind, detail) "
                "VALUES (?, ?, ?, ?)",
                (
                    sweep_id,
                    device_id,
                    report.verdict.value,
                    failure.describe() if failure else "",
                ),
            )
        return attestation_id

    def history(
        self, device_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[AttestationRow]:
        """Attestation rows, newest first, optionally per device."""
        query = "SELECT * FROM attestations"
        params: List[object] = []
        if device_id is not None:
            query += " WHERE device_id = ?"
            params.append(device_id)
        query += " ORDER BY attestation_id DESC"
        if limit is not None:
            query += " LIMIT ?"
            params.append(int(limit))
        rows = self._conn.execute(query, params).fetchall()
        return [self._attestation_from_row(row) for row in rows]

    @staticmethod
    def _attestation_from_row(row: sqlite3.Row) -> AttestationRow:
        """The outcome a row records; :class:`FleetError` if malformed."""
        read = _RowReader("attestations", row)
        verdict = read.text("verdict")
        if verdict not in _PRIORITY:  # a verdict a sweep cannot schedule
            raise read.malformed("verdict")
        try:
            frames = json.loads(read.text("mismatched_frames"))
        except (ValueError, RecursionError):
            frames = None
        if not isinstance(frames, list) or not all(
            type(frame) is int for frame in frames
        ):
            raise read.malformed("mismatched_frames")
        return AttestationRow(
            attestation_id=read.integer("attestation_id"),
            sweep_id=read.integer("sweep_id"),
            device_id=read.text("device_id"),
            verdict=verdict,
            mac_valid=bool(read.integer("mac_valid")),
            config_match=bool(read.integer("config_match")),
            attempts=read.integer("attempts"),
            duration_ns=read.real("duration_ns"),
            tag_hex=read.text("tag_hex"),
            nonce_hex=read.text("nonce_hex"),
            mismatched_frames=tuple(frames),
            failure_stage=read.text("failure_stage"),
            failure_kind=read.text("failure_kind"),
            failure_detail=read.text("failure_detail"),
        )

    def verdict_counts(self, sweep_id: Optional[int] = None) -> Dict[str, int]:
        """Verdict → row count, fleet-wide or for one sweep."""
        if sweep_id is None:
            rows = self._conn.execute(
                "SELECT verdict, COUNT(*) AS n FROM attestations "
                "GROUP BY verdict"
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT verdict, COUNT(*) AS n FROM attestations "
                "WHERE sweep_id = ? GROUP BY verdict",
                (sweep_id,),
            ).fetchall()
        return {row["verdict"]: int(row["n"]) for row in rows}

    def last_outcomes(self) -> Dict[str, AttestationRow]:
        """Each device's most recent attestation row (devices with one)."""
        rows = self._conn.execute(
            "SELECT a.* FROM attestations a JOIN ("
            "  SELECT device_id, MAX(attestation_id) AS latest "
            "  FROM attestations GROUP BY device_id"
            ") m ON a.device_id = m.device_id AND a.attestation_id = m.latest"
        ).fetchall()
        return {
            row["device_id"]: self._attestation_from_row(row) for row in rows
        }

    def events(
        self, device_id: Optional[str] = None
    ) -> List[Tuple[int, Optional[int], Optional[str], str, str]]:
        """Audit-trail rows ``(event_id, sweep_id, device_id, kind, detail)``."""
        query = (
            "SELECT event_id, sweep_id, device_id, kind, detail FROM events"
        )
        params: List[object] = []
        if device_id is not None:
            query += " WHERE device_id = ?"
            params.append(device_id)
        query += " ORDER BY event_id"
        return [
            (
                int(row["event_id"]),
                int(row["sweep_id"]) if row["sweep_id"] is not None else None,
                row["device_id"],
                row["kind"],
                row["detail"],
            )
            for row in self._conn.execute(query, params)
        ]

    # -- re-attestation scheduling -------------------------------------------------

    def select_for_attestation(
        self, limit: Optional[int] = None
    ) -> List[DeviceRecord]:
        """Devices to attest next, highest-need first.

        Priority order (the staged-rollout roadmap item's scheduling
        seed): previously-INCONCLUSIVE devices, then never-attested
        devices, then previously-rejected, then known-healthy — and
        within each class the *stalest* first (smallest last sweep id),
        with the device id as the deterministic tiebreak.
        """
        last = self.last_outcomes()
        ranked = sorted(
            self.devices(),
            key=lambda device: (
                _PRIORITY[
                    last[device.device_id].verdict
                    if device.device_id in last
                    else None
                ],
                last[device.device_id].sweep_id
                if device.device_id in last
                else 0,
                device.device_id,
            ),
        )
        if limit is not None:
            if limit < 0:
                raise FleetError(f"selection limit must be >= 0, got {limit}")
            ranked = ranked[:limit]
        return ranked
