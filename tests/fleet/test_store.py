"""FleetStore: persistence, migrations, and write atomicity."""

import sqlite3

import pytest

from repro.core.report import AttestationReport, FailureReason
from repro.errors import FleetError
from repro.utils.secret import SecretBytes
from repro.fleet.store import (
    MIGRATIONS,
    SCHEMA_VERSION,
    DeviceRecord,
    FleetStore,
    migrate,
    schema_version,
)


def _device(device_id="dev-0000", **overrides):
    fields = dict(
        device_id=device_id,
        part="SIM-SMALL",
        seed=100,
        key_mode="puf",
        key=SecretBytes(b"\xab" * 16),
        tampered=False,
    )
    fields.update(overrides)
    return DeviceRecord(**fields)


def _accept_report(nonce=b"\x01\x02"):
    return AttestationReport(mac_valid=True, config_match=True, nonce=nonce)


class TestMigrations:
    def test_fresh_store_is_at_current_version(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            assert schema_version(store._conn) == SCHEMA_VERSION

    def test_runner_is_idempotent(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "fleet.db")
        first = migrate(conn)
        assert first == [m.version for m in MIGRATIONS]
        assert migrate(conn) == []
        assert schema_version(conn) == SCHEMA_VERSION
        conn.close()

    def test_old_database_upgrades_in_place(self, tmp_path):
        """A v1 database gains the v2 tables on next open, keeping data."""
        path = tmp_path / "fleet.db"
        conn = sqlite3.connect(path)
        assert migrate(conn, target_version=1) == [1]
        assert schema_version(conn) == 1
        conn.execute(
            "INSERT INTO devices (device_id, part, seed, key_mode, key_hex)"
            " VALUES ('old-dev', 'SIM-SMALL', 1, 'puf', 'ff')"
        )
        conn.commit()
        conn.close()

        with FleetStore(path) as store:
            assert schema_version(store._conn) == SCHEMA_VERSION
            assert store.get_device("old-dev").part == "SIM-SMALL"
            # the v2 surface works on the upgraded database
            assert store.events() == []
            assert store.latest_snapshot() is None

    def test_versions_must_increase(self):
        assert [m.version for m in MIGRATIONS] == sorted(
            {m.version for m in MIGRATIONS}
        )


class TestPersistence:
    def test_rows_survive_close_and_reopen(self, tmp_path):
        path = tmp_path / "fleet.db"
        with FleetStore(path) as store:
            store.enroll(_device())
            sweep_id = store.begin_sweep(7, "loss=0.05", 1)
            store.record_attestation(
                sweep_id,
                "dev-0000",
                _accept_report(),
                tag=b"\xaa\xbb",
                duration_ns=123.0,
                attempts=2,
            )
            store.finish_sweep(sweep_id, {"families": {}})

        with FleetStore(path) as store:
            device = store.get_device("dev-0000")
            assert device.key.reveal().hex() == "ab" * 16
            (row,) = store.history()
            assert row.sweep_id == sweep_id
            assert row.verdict == "accept"
            assert row.tag_hex == "aabb"
            assert row.nonce_hex == "0102"
            assert row.attempts == 2
            assert store.latest_snapshot() == {"families": {}}
            kinds = [event[3] for event in store.events()]
            assert kinds == [
                "enrolled", "sweep_started", "accept", "sweep_completed",
            ]

    def test_failure_reason_round_trips(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            store.enroll(_device())
            sweep_id = store.begin_sweep(7, "", 1)
            report = AttestationReport.make_inconclusive(
                FailureReason(stage="transport", kind="timeout", detail="x")
            )
            store.record_attestation(sweep_id, "dev-0000", report)
            (row,) = store.history()
            assert row.verdict == "inconclusive"
            assert (row.failure_stage, row.failure_kind) == (
                "transport", "timeout",
            )

    def test_double_enroll_rejected(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            store.enroll(_device())
            with pytest.raises(FleetError, match="already enrolled"):
                store.enroll(_device())

    def test_finish_unknown_sweep_rejected(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            with pytest.raises(FleetError, match="no sweep"):
                store.finish_sweep(99, None)

    def test_each_record_commits_with_its_verdict_event(self, tmp_path):
        """Every persisted row holds the fields of one logical record,
        and each record's verdict event committed with it."""
        with FleetStore(tmp_path / "fleet.db") as store:
            devices, rounds = 8, 3
            for index in range(devices):
                store.enroll(_device(f"dev-{index:04d}", seed=index))
            sweep_id = store.begin_sweep(7, "", devices)
            for _ in range(rounds):
                for index in range(devices):
                    nonce = bytes([index])
                    store.record_attestation(
                        sweep_id,
                        f"dev-{index:04d}",
                        _accept_report(nonce=nonce),
                        tag=nonce * 4,
                        duration_ns=float(index),
                        attempts=index + 1,
                    )

            rows = store.history()
            assert len(rows) == devices * rounds
            for row in rows:
                index = int(row.device_id.split("-")[1])
                assert row.nonce_hex == bytes([index]).hex()
                assert row.tag_hex == (bytes([index]) * 4).hex()
                assert row.duration_ns == float(index)
                assert row.attempts == index + 1
            verdict_events = [
                event for event in store.events() if event[3] == "accept"
            ]
            assert len(verdict_events) == devices * rounds


class TestSelection:
    def test_priority_order(self, tmp_path):
        """INCONCLUSIVE first, then never-attested, then rejected, then
        healthy — stalest (earliest sweep) first within each class."""
        with FleetStore(tmp_path / "fleet.db") as store:
            for name in ("a", "b", "c", "d", "e"):
                store.enroll(_device(f"dev-{name}"))
            first = store.begin_sweep(1, "", 4)
            store.record_attestation(first, "dev-a", _accept_report())
            store.record_attestation(
                first,
                "dev-b",
                AttestationReport.make_inconclusive(
                    FailureReason(stage="transport", kind="timeout")
                ),
            )
            store.record_attestation(
                first,
                "dev-c",
                AttestationReport(
                    mac_valid=True,
                    config_match=False,
                    nonce=b"\x00",
                    mismatched_frames=[3],
                ),
            )
            store.finish_sweep(first, None)
            second = store.begin_sweep(2, "", 1)
            store.record_attestation(second, "dev-e", _accept_report())
            store.finish_sweep(second, None)

            ranked = [
                device.device_id for device in store.select_for_attestation()
            ]
            assert ranked == ["dev-b", "dev-d", "dev-c", "dev-a", "dev-e"]
            limited = store.select_for_attestation(limit=2)
            assert [device.device_id for device in limited] == [
                "dev-b", "dev-d",
            ]

    def test_negative_limit_rejected(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            with pytest.raises(FleetError, match="limit"):
                store.select_for_attestation(limit=-1)
