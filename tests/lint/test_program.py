"""The whole-program tier: SACHA006 over multi-file virtual trees.

Each test hands :func:`repro.lint.lint_program_sources` a small
in-memory project — the same entry point the engine uses for real
trees, minus the filesystem — and checks the pass sees (or correctly
ignores) a cross-module property no single-file rule could.

The final classes pin the acceptance criteria: the shipped tree is
clean under ``--program`` with no baseline, and the CLI runs the tier
only when asked.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.lint import lint_program_sources, run_lint

SRC = Path(repro.__file__).parent

LOGGER_PRELUDE = (
    "from repro.obs.logging import get_logger\n\n_log = get_logger(__name__)\n"
)


def rule_ids(findings):
    return sorted({finding.rule for finding in findings})


def messages(findings):
    return "\n".join(finding.render() for finding in findings)


# ---------------------------------------------------------------------------
# SACHA006 — secret taint
# ---------------------------------------------------------------------------


class TestSecretTaint:
    def test_key_reaches_log_through_a_cross_module_helper_chain(self):
        tree = {
            "repro/core/source.py": (
                "def fetch_key():\n"
                "    return derive_key()\n"
            ),
            "repro/core/flow.py": (
                LOGGER_PRELUDE
                + "from repro.core.source import fetch_key\n\n"
                "def announce(material):\n"
                '    _log.info("boot", material=material)\n\n'
                "def run():\n"
                "    key = fetch_key()\n"
                "    announce(key)\n"
            ),
        }
        findings = lint_program_sources(tree)
        assert rule_ids(findings) == ["SACHA006"], messages(findings)
        assert any(
            "structured log" in finding.message for finding in findings
        )
        assert any(
            finding.path == "repro/core/flow.py" for finding in findings
        )

    def test_redaction_at_the_boundary_stops_the_taint(self):
        tree = {
            "repro/core/flow.py": (
                LOGGER_PRELUDE
                + "from repro.utils.secret import redact\n\n"
                "def run():\n"
                "    key = derive_key()\n"
                '    _log.info("boot", material=redact(key))\n'
            ),
        }
        assert lint_program_sources(tree) == []

    def test_nonce_in_exception_message(self):
        tree = {
            "repro/core/flow.py": (
                "def run(rng):\n"
                '    nonce = rng.fork("nonce").randbytes(16)\n'
                '    raise ValueError(f"stale nonce {nonce!r}")\n'
            ),
        }
        findings = lint_program_sources(tree)
        assert rule_ids(findings) == ["SACHA006"], messages(findings)
        assert any("exception" in finding.message for finding in findings)

    def test_secret_field_declared_as_raw_bytes(self):
        tree = {
            "repro/core/records.py": (
                "from dataclasses import dataclass\n\n"
                "@dataclass\n"
                "class Record:\n"
                "    device_id: str\n"
                "    mac_key: bytes\n"
            ),
        }
        findings = lint_program_sources(tree)
        assert rule_ids(findings) == ["SACHA006"], messages(findings)
        assert any("mac_key" in finding.message for finding in findings)

    def test_secretbytes_field_declaration_is_clean(self):
        tree = {
            "repro/core/records.py": (
                "from dataclasses import dataclass\n\n"
                "from repro.utils.secret import SecretBytes\n\n"
                "@dataclass\n"
                "class Record:\n"
                "    device_id: str\n"
                "    mac_key: SecretBytes\n"
            ),
        }
        assert lint_program_sources(tree) == []

    def test_allowlisted_sqlite_column_takes_key_hex(self):
        tree = {
            "repro/fleet/db.py": (
                "def persist(connection, record):\n"
                "    key = record.mac_key()\n"
                "    connection.execute(\n"
                '        "INSERT INTO devices (device_id, key_hex) '
                'VALUES (?, ?)",\n'
                "        (record.device_id, key.hex()),\n"
                "    )\n"
            ),
        }
        assert lint_program_sources(tree) == []

    def test_key_into_a_non_sanctioned_sqlite_column(self):
        tree = {
            "repro/fleet/db.py": (
                "def persist(connection, record):\n"
                "    key = record.mac_key()\n"
                "    connection.execute(\n"
                '        "INSERT INTO devices (device_id, notes) '
                'VALUES (?, ?)",\n'
                "        (record.device_id, key.hex()),\n"
                "    )\n"
            ),
        }
        findings = lint_program_sources(tree)
        assert rule_ids(findings) == ["SACHA006"], messages(findings)

    def test_benign_field_of_a_record_built_from_a_key_is_not_tainted(self):
        # Field sensitivity: wrapping a key in a record does not make
        # the record's *other* fields secret.
        tree = {
            "repro/core/flow.py": (
                LOGGER_PRELUDE
                + "from repro.core.records import Record\n\n"
                "def run(device_id):\n"
                "    key = derive_key()\n"
                "    record = Record(device_id, key)\n"
                '    _log.info("enrolled", device=record.device_id)\n'
            ),
            "repro/core/records.py": (
                "class Record:\n"
                "    def __init__(self, device_id, key):\n"
                "        self.device_id = device_id\n"
                "        self.key = key\n"
            ),
        }
        assert lint_program_sources(tree) == []


# ---------------------------------------------------------------------------
# Acceptance criteria: real tree clean
# ---------------------------------------------------------------------------


class TestShippedTree:
    def test_shipped_tree_is_clean_under_program_mode(self):
        result = run_lint([SRC], program=True)
        assert result.findings == [], messages(result.findings)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


@pytest.fixture
def tainted_tree(tmp_path):
    target = tmp_path / "repro" / "core" / "leak.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        LOGGER_PRELUDE
        + "def run():\n"
        "    key = derive_key()\n"
        '    _log.info("boot", material=key)\n'
    )
    return tmp_path


class TestCli:
    def test_program_flag_fails_on_a_seeded_violation(
        self, tainted_tree, capsys
    ):
        status = main(
            ["lint", str(tainted_tree), "--no-baseline", "--program"]
        )
        assert status == 1
        assert "SACHA006" in capsys.readouterr().out

    def test_plain_run_skips_the_program_tier(self, tainted_tree, capsys):
        status = main(["lint", str(tainted_tree), "--no-baseline"])
        assert status == 0
        assert "SACHA006" not in capsys.readouterr().out

    def test_stats_flag_reports_per_rule_timing(self, tainted_tree, capsys):
        main(
            [
                "lint",
                str(tainted_tree),
                "--no-baseline",
                "--program",
                "--stats",
            ]
        )
        out = capsys.readouterr().out
        for rule_id in ("SACHA001", "SACHA006"):
            assert f"{rule_id}:" in out
        assert "ms" in out

    def test_list_rules_includes_the_program_tier(self, capsys):
        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        program_tier = [
            line.split()[0] for line in out.splitlines() if "[--program]" in line
        ]
        assert program_tier == ["SACHA006"]

    def test_select_can_narrow_to_one_program_rule(
        self, tainted_tree, capsys
    ):
        argv = ["lint", str(tainted_tree), "--no-baseline", "--program"]
        assert main(argv + ["--select", "SACHA006"]) == 1
        assert "SACHA006" in capsys.readouterr().out
        assert main(argv + ["--select", "SACHA001"]) == 0
        assert "SACHA006" not in capsys.readouterr().out
