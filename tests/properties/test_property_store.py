"""Fleet-store rows fail closed.

SQLite keeps whatever a writer put in a column, whatever type the schema
declares, so the registry is a parser too: a hand-edited or corrupted
row reaches :class:`~repro.fleet.store.FleetStore` as an arbitrary
integer, float, text or blob.  Whatever each column of ``devices`` and
``attestations`` holds, every read a sweep makes returns well-formed
rows or raises :class:`~repro.errors.FleetError` — never the bare
``ValueError``, ``KeyError`` or ``TypeError`` that would end
``repro fleet attest`` in a traceback.
"""

import sqlite3

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.report import AttestationReport, Verdict
from repro.errors import FleetError
from repro.fleet.store import AttestationRow, DeviceRecord, FleetStore
from repro.utils.secret import SecretBytes

DEVICE_COLUMNS = ("device_id", "part", "seed", "key_mode", "key_hex", "tampered")
ATTESTATION_COLUMNS = (
    "attestation_id",
    "sweep_id",
    "device_id",
    "verdict",
    "mac_valid",
    "config_match",
    "attempts",
    "duration_ns",
    "tag_hex",
    "nonce_hex",
    "mismatched_frames",
    "failure_stage",
    "failure_kind",
    "failure_detail",
)
VERDICTS = {verdict.value for verdict in Verdict}

#: Every SQLite storage class, plus near misses of well-formed values.
SQL_VALUES = st.one_of(
    st.none(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=24),
    st.binary(max_size=24),
    st.sampled_from(
        [
            "zz",
            "abc",
            "00" * 16,
            "12",
            "1.5",
            "accept",
            "ACCEPT",
            "[]",
            "[3, 5]",
            "[true]",
            "[1.5]",
            '["1"]',
            "{}",
            "7",
            "[" * 5000,
        ]
    ),
)


def _seeded_store() -> FleetStore:
    """Two enrolled devices, one of them attested once."""
    store = FleetStore(":memory:")
    for index in range(2):
        store.enroll(
            DeviceRecord(
                device_id=f"dev-{index}",
                part="SIM-SMALL",
                seed=index,
                key_mode="puf",
                key=SecretBytes(bytes(16)),
            )
        )
    sweep_id = store.begin_sweep(seed=7, profile="", device_count=2)
    report = AttestationReport(
        mac_valid=True, config_match=False, nonce=b"\x01", mismatched_frames=[3, 5]
    )
    store.record_attestation(sweep_id, "dev-0", report, tag=b"\x02")
    # The corruption below bypasses the store, as a hand edit would.
    store._conn.execute("PRAGMA foreign_keys = OFF")
    return store


def _corrupt(store: FleetStore, table: str, values: dict) -> None:
    """Write each value into its column of the table's first row."""
    for column, value in values.items():
        try:
            with store._conn:
                store._conn.execute(
                    f"UPDATE {table} SET {column} = ? "
                    f"WHERE rowid = (SELECT MIN(rowid) FROM {table})",
                    (value,),
                )
        except sqlite3.IntegrityError:
            pass  # the schema refused it: NOT NULL, or a non-integer rowid


def _assert_well_formed(record) -> None:
    if isinstance(record, DeviceRecord):
        assert all(
            isinstance(text, str)
            for text in (record.device_id, record.part, record.key_mode)
        )
        assert type(record.seed) is int
        assert isinstance(record.key, SecretBytes)
    else:
        assert isinstance(record, AttestationRow)
        assert record.verdict in VERDICTS
        assert type(record.sweep_id) is int
        assert isinstance(record.device_id, str)
        assert all(type(frame) is int for frame in record.mismatched_frames)


@given(
    devices=st.dictionaries(st.sampled_from(DEVICE_COLUMNS), SQL_VALUES),
    attestations=st.dictionaries(st.sampled_from(ATTESTATION_COLUMNS), SQL_VALUES),
)
@example(devices={"key_hex": "zz"}, attestations={})
@example(devices={"seed": "abc"}, attestations={})
@example(devices={}, attestations={"verdict": "maybe"})
@example(devices={}, attestations={"mismatched_frames": "[" * 5000})
@settings(max_examples=200, deadline=None)
def test_every_read_returns_well_formed_rows_or_raises_fleet_error(
    devices, attestations
):
    store = _seeded_store()
    _corrupt(store, "devices", devices)
    _corrupt(store, "attestations", attestations)
    for read in (
        store.devices,
        store.history,
        store.last_outcomes,
        store.select_for_attestation,
    ):
        try:
            rows = read()
        except FleetError:
            continue
        for record in rows.values() if isinstance(rows, dict) else rows:
            _assert_well_formed(record)
    store.close()


def test_the_message_names_device_and_column_but_not_the_key():
    store = _seeded_store()
    _corrupt(store, "devices", {"key_hex": "zz" + "ab" * 15})
    try:
        store.devices()
    except FleetError as exc:
        message = str(exc)
    else:
        raise AssertionError("a non-hex key was read back")
    assert "'dev-0'" in message and "'key_hex'" in message
    assert "ab" not in message
    store.close()
