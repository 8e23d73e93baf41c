"""SACHA006, the whole-program rule, over multi-file virtual trees.

Each test hands :func:`repro.lint.lint_sources` a small in-memory
project — the same pass ``repro lint`` runs over real trees, minus the
filesystem — and checks the taint analysis sees (or correctly ignores)
a cross-module property no single-file rule could.
"""

from __future__ import annotations

from pathlib import Path

import repro
from repro.cli import main
from repro.lint import lint_sources
from repro.lint.engine import collect_files, source_relpath
from tests.lint.conftest import KEY_LEAK_SOURCE, LOGGER_PRELUDE

SRC = Path(repro.__file__).parent


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
        findings = lint_sources(tree)
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
        assert lint_sources(tree) == []

    def test_nonce_in_exception_message(self):
        tree = {
            "repro/core/flow.py": (
                "def run(rng):\n"
                '    nonce = rng.fork("nonce").randbytes(16)\n'
                '    raise ValueError(f"stale nonce {nonce!r}")\n'
            ),
        }
        findings = lint_sources(tree)
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
        findings = lint_sources(tree)
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
        assert lint_sources(tree) == []

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
        assert lint_sources(tree) == []

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
        findings = lint_sources(tree)
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
        assert lint_sources(tree) == []


class TestShippedTree:
    def test_shipped_tree_is_clean_under_program_mode(self):
        """SACHA006 over the real package is clean, and live: one key
        leak added to the shipped tree is the only finding."""
        sources = {
            source_relpath(path): path.read_text(encoding="utf-8")
            for path in collect_files([SRC])
        }
        assert "repro/core/leak.py" not in sources
        sources["repro/core/leak.py"] = KEY_LEAK_SOURCE
        findings = lint_sources(sources)
        assert [(f.rule, f.path) for f in findings] == [
            ("SACHA006", "repro/core/leak.py")
        ], messages(findings)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestCli:
    def test_program_flag_fails_on_a_seeded_violation(self, tmp_path, capsys):
        """The whole-program rule runs in every ``repro lint``: a plain
        run over a tree with a key leak fails on SACHA006."""
        leak = tmp_path / "repro" / "core" / "leak.py"
        leak.parent.mkdir(parents=True)
        leak.write_text(KEY_LEAK_SOURCE)
        status = main(["lint", str(tmp_path)])
        assert status == 1
        assert "SACHA006" in capsys.readouterr().out
