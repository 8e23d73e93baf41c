"""CLI tests: every command runs, exits correctly, prints what it says."""

import pytest

from repro.cache import get_artifact_cache
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attest", "--device", "XC7Z020"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99-nothing"])

    def test_cache_is_not_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "stats"])

    def test_artifact_cache_flag_parses(self):
        args = build_parser().parse_args(["--no-artifact-cache", "list"])
        assert args.artifact_cache is False

    def test_transport_flags_belong_to_attest(self):
        args = build_parser().parse_args(
            ["attest", "--arq-window", "1", "--readback-batch-frames", "4"]
        )
        assert (args.arq_window, args.readback_batch_frames) == (1, 4)
        defaults = build_parser().parse_args(["attest"])
        assert (defaults.arq_window, defaults.readback_batch_frames) == (8, 256)
        for rejected in (
            ["--arq-window", "1", "attest"],
            ["attest", "--no-arq-adaptive"],
            ["attest", "--arq-window", "0"],
            ["attest", "--readback-batch-frames", "0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(rejected)


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "XC6VLX240T" in out
        assert "E1-table2" in out

    def test_attest_honest(self, capsys):
        assert main(["attest", "--device", "SIM-SMALL", "--seed", "7"]) == 0
        assert "ATTESTED" in capsys.readouterr().out

    def test_attest_output_same_with_cache_disabled(self, capsys):
        assert main(["--no-artifact-cache", "attest", "--device",
                     "SIM-SMALL"]) == 0
        cold = capsys.readouterr().out
        assert main(["attest", "--device", "SIM-SMALL"]) == 0
        assert capsys.readouterr().out == cold

    def test_attest_tampered(self, capsys):
        assert main(
            ["attest", "--device", "SIM-SMALL", "--seed", "7", "--tamper"]
        ) == 0  # exit 0: detection behaved as expected
        out = capsys.readouterr().out
        assert "REJECTED" in out

    def test_attest_tampered_sim_medium(self, capsys):
        """SIM-MEDIUM masks bit (frame 0, word 0, bit 0): --tamper must
        flip a visible bit and be rejected at that frame."""
        assert main(
            ["attest", "--device", "SIM-MEDIUM", "--seed", "7", "--tamper"]
        ) == 0
        out = capsys.readouterr().out
        frame = get_artifact_cache().get_system(
            "SIM-MEDIUM"
        ).first_unmasked_static_bit().frame_index
        assert f"(tampered static frame {frame})" in out
        assert f"REJECTED: configuration mismatch in 1 frame(s) [{frame}]" in out

    def test_trace(self, capsys):
        assert main(["trace", "--device", "SIM-SMALL"]) == 0
        out = capsys.readouterr().out
        assert "ICAP_config" in out
        assert "MAC_checksum" in out

    def test_security(self, capsys):
        assert main(["security", "--device", "SIM-SMALL"]) == 0
        out = capsys.readouterr().out
        assert "defense holds" in out

    def test_experiment_runner(self, capsys):
        assert main(["experiment", "E2-table3"]) == 0
        assert "8,856" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "Table 4" in out
        assert "28.500 s" in out
