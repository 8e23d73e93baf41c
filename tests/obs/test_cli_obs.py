"""End-to-end CLI: attest with telemetry, then analyse it offline."""

import json
import re

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def networked_artifacts(tmp_path_factory):
    """One networked clean-profile attestation's span dump + snapshot."""
    out = tmp_path_factory.mktemp("obs-cli")
    spans = out / "spans.jsonl"
    snapshot = out / "snapshot.json"
    rc = main(
        [
            "attest",
            "--device",
            "SIM-SMALL",
            "--seed",
            "7",
            "--fault-profile",
            "clean",
            "--spans-out",
            str(spans),
            "--snapshot-out",
            str(snapshot),
        ]
    )
    assert rc == 0
    return spans, snapshot


class TestObsReport:
    def test_report_renders_single_stitched_tree(
        self, networked_artifacts, capsys
    ):
        spans, _ = networked_artifacts
        assert main(["obs", "report", str(spans)]) == 0
        text = capsys.readouterr().out
        assert "Traces: " in text
        assert "session_attempt" in text
        assert "prover_readback" in text
        assert "Critical path:" in text
        assert "ARQ timeline" in text

    def test_report_is_byte_stable(self, networked_artifacts, capsys):
        spans, _ = networked_artifacts
        main(["obs", "report", str(spans)])
        first = capsys.readouterr().out
        main(["obs", "report", str(spans)])
        assert capsys.readouterr().out == first

    def test_report_merges_multiple_dumps(
        self, networked_artifacts, tmp_path, capsys
    ):
        """One run's dump split in two renders the whole file's report:
        the prover's spans stay under ``session_attempt``, whose id the
        other half holds."""
        spans, _ = networked_artifacts
        assert main(["obs", "report", str(spans)]) == 0
        whole = capsys.readouterr().out
        lines = spans.read_text(encoding="utf-8").splitlines(keepends=True)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        first.write_text("".join(lines[: len(lines) // 2]), encoding="utf-8")
        second.write_text("".join(lines[len(lines) // 2 :]), encoding="utf-8")
        assert main(["obs", "report", str(first), str(second)]) == 0
        assert capsys.readouterr().out == whole
        for name in ("prover_config", "prover_readback", "prover_checksum"):
            assert f"\n    {name} " in whole


class TestObsFlame:
    def test_flame_to_stdout(self, networked_artifacts, capsys):
        spans, _ = networked_artifacts
        assert main(["obs", "flame", str(spans)]) == 0
        out = capsys.readouterr().out
        stacks = [line for line in out.splitlines() if line]
        assert stacks
        for line in stacks:
            stack, _, weight = line.rpartition(" ")
            assert stack
            assert int(weight) > 0

    def test_flame_to_file(self, networked_artifacts, tmp_path, capsys):
        spans, _ = networked_artifacts
        target = tmp_path / "stacks.collapsed"
        assert main(["obs", "flame", str(spans), "-o", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert target.read_text(encoding="utf-8")


class TestObsHealth:
    def test_clean_run_is_healthy(self, networked_artifacts, capsys):
        _, snapshot = networked_artifacts
        assert main(["obs", "health", str(snapshot)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("health: OK")
        assert "reject_rate" in out

    def test_reject_spike_exits_crit(self, tmp_path, capsys):
        from repro.obs.exporters import registry_snapshot
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry(enabled=True)
        runs = registry.counter(
            "sacha_attestations_total", "Runs", labels=("result",)
        )
        runs.inc(1, result="accept")
        runs.inc(3, result="reject")
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(registry_snapshot(registry), sort_keys=True),
            encoding="utf-8",
        )
        assert main(["obs", "health", str(path)]) == 2
        assert "CRIT" in capsys.readouterr().out

    def test_lossy_window_one_run_has_no_cwnd_collapse(self, tmp_path, capsys):
        """A window-1 link has no window to halve: a lossy stop-and-wait
        run retransmits, but exports no halvings, so the collapse rule
        stays OK."""
        snapshot = tmp_path / "window-one.json"
        rc = main(
            [
                "attest",
                "--device",
                "SIM-SMALL",
                "--seed",
                "7",
                "--fault-profile",
                "loss=0.05",
                "--max-attempts",
                "3",
                "--arq-window",
                "1",
                "--readback-batch-frames",
                "1",
                "--snapshot-out",
                str(snapshot),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        main(["obs", "health", str(snapshot)])
        out = capsys.readouterr().out
        # The link did lose frames, but no window halved.  72 payloads is
        # the run the command makes without --snapshot-out too.
        assert re.search(r"\[WARN +\] arq_retransmission_ratio: .* = 8/72 ", out)
        assert re.search(r"\[OK +\] arq_cwnd_collapse: .* = 0/72 ", out)

    def test_multiple_snapshots_merge(
        self, networked_artifacts, tmp_path, capsys
    ):
        _, snapshot = networked_artifacts
        copy = tmp_path / "second.json"
        copy.write_text(
            snapshot.read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert main(["obs", "health", str(snapshot), str(copy)]) == 0
        assert "health: OK" in capsys.readouterr().out


class TestSnapshotOut:
    def test_snapshot_out_written_and_restorable(self, tmp_path):
        from repro.obs.aggregate import registry_from_snapshot

        path = tmp_path / "snap.json"
        rc = main(
            [
                "attest",
                "--device",
                "SIM-SMALL",
                "--seed",
                "7",
                "--snapshot-out",
                str(path),
            ]
        )
        assert rc == 0
        snapshot = json.loads(path.read_text(encoding="utf-8"))
        restored = registry_from_snapshot(snapshot)
        assert restored.get("sacha_attestations_total").value(
            result="accept"
        ) == 1.0
