"""``repro fleet``: the full enroll/attest/status/history/health loop."""

import json
import sqlite3

import pytest

from repro.cli import build_parser, main


def _db(tmp_path):
    return str(tmp_path / "fleet.db")


def _enroll(db, count=3, extra=()):
    return main(
        ["fleet", "enroll", "--db", db, "--count", str(count), *extra]
    )


class TestParser:
    def test_fleet_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet"])

    def test_fleet_requires_db(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "status"])

    def test_unknown_part_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "enroll", "--db", _db(tmp_path), "--device", "nope"]
            )

    def test_sweeps_take_no_worker_count(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "attest", "--db", _db(tmp_path), "--workers", "2"]
            )


class TestLifecycle:
    def test_enroll_attest_status_history_health(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=3) == 0
        out = capsys.readouterr().out
        assert "enrolled dev-0000" in out
        assert "fleet: 3 device(s)" in out

        snapshot_path = tmp_path / "snap.json"
        assert main(
            [
                "fleet", "attest", "--db", db, "--seed", "7",
                "--snapshot-out", str(snapshot_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "accept=3 reject=0 inconclusive=0" in out
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        assert "sacha_fleet_attestations_total" in snapshot

        assert main(["fleet", "status", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "3 device(s), 1 completed sweep(s)" in out
        assert "last: accept (sweep 1)" in out
        assert "verdict totals: accept=3 reject=0 inconclusive=0" in out

        assert main(["fleet", "history", "--db", db, "--limit", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("verdict=accept" in line for line in lines)

        assert main(["fleet", "health", "--db", db]) == 0
        out = capsys.readouterr().out
        assert "fleet_reject_rate" in out
        assert "fleet_inconclusive_rate" in out

    def test_enrollment_continues_numbering(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=2) == 0
        assert _enroll(db, count=1) == 0
        out = capsys.readouterr().out
        assert "enrolled dev-0002" in out

    def test_status_before_any_sweep(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=1) == 0
        assert main(["fleet", "status", "--db", db]) == 0
        assert "never attested" in capsys.readouterr().out

    def test_history_empty(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=1) == 0
        assert main(["fleet", "history", "--db", db]) == 0
        assert "no attestations recorded" in capsys.readouterr().out

    def test_health_without_sweeps_fails(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=1) == 0
        assert main(["fleet", "health", "--db", db]) == 1
        assert "no completed sweeps" in capsys.readouterr().out


class TestExitCodes:
    def test_tampered_fleet_exits_one(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=2) == 0
        assert _enroll(db, count=1, extra=["--prefix", "bad", "--tamper"]) == 0
        assert main(["fleet", "attest", "--db", db, "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "bad-0002: reject" in out

    def test_corrupted_key_exits_two(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=2) == 0
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "UPDATE devices SET key_hex = ? WHERE device_id = 'dev-0001'",
                ("00" * 16,),
            )
        conn.close()
        assert main(["fleet", "attest", "--db", db, "--seed", "7"]) == 2
        out = capsys.readouterr().out
        assert "dev-0001: inconclusive" in out
        assert "key_mismatch" in out

    def test_malformed_key_row_fails_closed(self, tmp_path, capsys):
        """A key that is not hex cannot be compared at all: the sweep
        refuses to start, naming the device and column, not the value."""
        db = _db(tmp_path)
        assert _enroll(db, count=2) == 0
        conn = sqlite3.connect(db)
        with conn:
            conn.execute(
                "UPDATE devices SET key_hex = 'zz' WHERE device_id = 'dev-0001'"
            )
        conn.close()
        assert main(["fleet", "attest", "--db", db, "--seed", "7"]) == 1
        err = capsys.readouterr().err
        assert "'dev-0001'" in err and "'key_hex'" in err
        assert "zz" not in err

    def test_attest_empty_fleet_is_an_error(self, tmp_path, capsys):
        assert main(["fleet", "attest", "--db", _db(tmp_path)]) == 1
        assert "enroll" in capsys.readouterr().err

    def test_lossy_profile_still_accepts(self, tmp_path, capsys):
        db = _db(tmp_path)
        assert _enroll(db, count=2) == 0
        assert main(
            [
                "fleet", "attest", "--db", db, "--seed", "7",
                "--fault-profile", "loss=0.05",
            ]
        ) == 0
        assert "accept=2" in capsys.readouterr().out
