"""The whole-program tier: SACHA006-008 over multi-file virtual trees.

Each test hands :func:`repro.lint.lint_program_sources` a small
in-memory project — the same entry point the engine uses for real
trees, minus the filesystem — and checks the pass sees (or correctly
ignores) a cross-module property no single-file rule could.

The final classes pin the acceptance criteria: the shipped tree is
clean under ``--program`` with no baseline, and the wire rule is alive
— seeded mutations of the *real* ``repro/net`` sources are caught.
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
# SACHA008 — wire-protocol consistency
# ---------------------------------------------------------------------------

WIRE_PATH = "repro/net/messages.py"


def wire_module(
    *,
    pong_value: str = "0x02",
    name_table: str = '{OPCODE_PING: "ping", OPCODE_PONG: "pong"}',
    ping_width: int = 2,
    ping_read: str = "data[1:3]",
) -> str:
    return (
        f"OPCODE_PING = 0x01\n"
        f"OPCODE_PONG = {pong_value}\n\n"
        f"_OPCODE_NAMES = {name_table}\n\n\n"
        f"class PingCommand:\n"
        f"    def __init__(self, value):\n"
        f"        self.value = value\n\n"
        f"    def encode(self):\n"
        f"        return bytes([OPCODE_PING]) + "
        f'self.value.to_bytes({ping_width}, "big")\n\n\n'
        f"class PongCommand:\n"
        f"    def encode(self):\n"
        f"        return bytes([OPCODE_PONG])\n\n\n"
        f"def decode_command(data):\n"
        f"    opcode = data[0]\n"
        f"    if opcode == OPCODE_PING:\n"
        f'        return int.from_bytes({ping_read}, "big")\n'
        f"    if opcode == OPCODE_PONG:\n"
        f"        return None\n"
        f'    raise ValueError("unknown opcode")\n'
    )


class TestWireConsistency:
    def test_consistent_fixture_protocol_is_clean(self):
        findings = lint_program_sources({WIRE_PATH: wire_module()})
        assert findings == [], messages(findings)

    def test_orphan_opcode_has_no_encoder_decoder_or_name(self):
        source = wire_module(name_table='{OPCODE_PING: "ping"}')
        source += "\nOPCODE_GHOST = 0x7F\n"
        findings = lint_program_sources({WIRE_PATH: source})
        assert rule_ids(findings) == ["SACHA008"], messages(findings)
        ghost = [f for f in findings if "OPCODE_GHOST" in f.message]
        assert any("no encoder" in f.message for f in ghost)
        assert any("no decoder" in f.message for f in ghost)
        assert any("_OPCODE_NAMES" in f.message for f in ghost)

    def test_colliding_opcode_values(self):
        findings = lint_program_sources(
            {WIRE_PATH: wire_module(pong_value="0x01")}
        )
        assert "SACHA008" in rule_ids(findings), messages(findings)
        assert any("shared by" in finding.message for finding in findings)

    def test_pack_unpack_width_mismatch(self):
        # Encoder writes a u16; decoder reads 4 bytes at the same offset.
        findings = lint_program_sources(
            {WIRE_PATH: wire_module(ping_read="data[1:5]")}
        )
        assert rule_ids(findings) == ["SACHA008"], messages(findings)
        assert any("decoder reads" in finding.message for finding in findings)


# ---------------------------------------------------------------------------
# Acceptance criteria: real tree clean, real mutations caught
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def real_wire_sources():
    return {
        "repro/net/messages.py": (SRC / "net" / "messages.py").read_text(),
        "repro/net/batch.py": (SRC / "net" / "batch.py").read_text(),
    }


class TestShippedTree:
    def test_shipped_tree_is_clean_under_program_mode(self):
        result = run_lint([SRC], program=True)
        assert result.findings == [], messages(result.findings)

    def test_real_wire_sources_are_consistent(self, real_wire_sources):
        wire = [
            f
            for f in lint_program_sources(real_wire_sources)
            if f.rule == "SACHA008"
        ]
        assert wire == [], messages(wire)

    def test_mutated_encoder_width_is_caught(self, real_wire_sources):
        # ReadbackCommand's frame index shrinks to 3 bytes; its decoder
        # still reads a u32 — the rule must see the layouts disagree.
        original = 'bytes([OPCODE_ICAP_READBACK]) + self.frame_index.to_bytes(4, "big")'
        mutated = dict(real_wire_sources)
        assert original in mutated["repro/net/messages.py"]
        mutated["repro/net/messages.py"] = mutated[
            "repro/net/messages.py"
        ].replace(original, original.replace('4, "big"', '3, "big"'))
        findings = lint_program_sources(mutated)
        assert any(
            f.rule == "SACHA008" and "OPCODE_ICAP_READBACK" in f.message
            for f in findings
        ), messages(findings)

    def test_mutated_header_constant_is_caught(self, real_wire_sources):
        mutated = dict(real_wire_sources)
        assert "READBACK_BATCH_HEADER_BYTES = 7" in mutated["repro/net/batch.py"]
        mutated["repro/net/batch.py"] = mutated["repro/net/batch.py"].replace(
            "READBACK_BATCH_HEADER_BYTES = 7",
            "READBACK_BATCH_HEADER_BYTES = 8",
        )
        findings = lint_program_sources(mutated)
        assert any(
            f.rule == "SACHA008"
            and "READBACK_BATCH_HEADER_BYTES" in f.message
            for f in findings
        ), messages(findings)


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
        for rule_id in ("SACHA001", "SACHA006", "SACHA008"):
            assert f"{rule_id}:" in out
        assert "ms" in out

    def test_list_rules_includes_the_program_tier(self, capsys):
        main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        for rule_id in ("SACHA006", "SACHA008"):
            assert rule_id in out
        assert "SACHA007" not in out
        assert "[--program]" in out

    def test_select_can_narrow_to_one_program_rule(
        self, tainted_tree, capsys
    ):
        status = main(
            [
                "lint",
                str(tainted_tree),
                "--no-baseline",
                "--program",
                "--select",
                "SACHA008",
            ]
        )
        assert status == 0
        assert "SACHA006" not in capsys.readouterr().out
