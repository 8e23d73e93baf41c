"""FleetController: sweeps, determinism, persistence, exit codes."""

import hashlib
import json

import pytest

from repro.cache import get_artifact_cache, reset_artifact_cache
from repro.core.provisioning import materialize_device
from repro.core.report import Verdict
from repro.errors import FleetError
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.net.faults import FaultProfile
from repro.utils.secret import SecretBytes

#: SHA-256 of ``json.dumps(result.snapshot, sort_keys=True)`` for the
#: pinned fleet's ``attest(seed=7)``.  Re-captured when the prover went
#: to one ConfigAck per configuration phase: ``sacha_config_acks_total``
#: fell from 18 to 8 (one per device) and the ARQ and net-frame series
#: with it; ``TAGS_PIN`` did not move.
SNAPSHOT_PINS = {
    "clean": "d8a26779087377e8c6f539c7d3d50eb10156f2666c0ca2866287ddcc51fd52ea",
    "lossy": "11d7e35f67feb2ebf1d50425d8eec5f5d9c836388687d57dcada60e929c7d96b",
}
#: SHA-256 of the "device verdict tag" lines of the same sweep (clean and
#: lossy agree: the loss is absorbed by the transport).
TAGS_PIN = "73b7a9ced19dd07b1ff0b59e3315c9a7f8efeb86a7343083438fb71134516f86"
PROFILES = {"clean": None, "lossy": FaultProfile(loss_probability=0.05)}


def _enroll_pinned_fleet(store):
    """dev-0000..dev-0007, every fourth SIM-MEDIUM, dev-0005 tampered."""
    for index in range(8):
        device_id = f"dev-{index:04d}"
        part = "SIM-MEDIUM" if index % 4 == 3 else "SIM-SMALL"
        _, record = materialize_device(part, device_id, seed=100 + index)
        store.enroll(
            DeviceRecord(
                device_id=device_id,
                part=part,
                seed=100 + index,
                key_mode="puf",
                key=record.mac_key,
                tampered=index == 5,
            )
        )


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _enroll(store, count, prefix="dev", tampered=False, part="SIM-SMALL"):
    devices = []
    start = store.device_count
    for index in range(count):
        device_id = f"{prefix}-{start + index:04d}"
        seed = 100 + start + index
        _, record = materialize_device(part, device_id, seed=seed)
        device = DeviceRecord(
            device_id=device_id,
            part=part,
            seed=seed,
            key_mode="puf",
            key=record.mac_key,
            tampered=tampered,
        )
        store.enroll(device)
        devices.append(device)
    return devices


class TestDeterminism:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_sweep_snapshot_and_tags_match_pins(self, tmp_path, profile):
        """Snapshot and tags are byte-identical to the pinned sweep, with
        or without the ignored ``workers`` keyword, and every outcome is
        queryable from the store afterwards."""
        for extra in ({}, {"workers": 2}):
            with FleetStore(tmp_path / f"fleet-{len(extra)}.db") as store:
                _enroll_pinned_fleet(store)
                controller = FleetController(
                    store, fault_profile=PROFILES[profile]
                )
                reset_artifact_cache()
                result = controller.attest(seed=7, **extra)

                snapshot = result.snapshot
                assert _digest(json.dumps(snapshot, sort_keys=True)) == (
                    SNAPSHOT_PINS[profile]
                )
                assert _digest(
                    "".join(
                        f"{o.device_id} {o.verdict.value} {o.tag.hex()}\n"
                        for o in result.outcomes
                    )
                ) == TAGS_PIN
                # gauges hold the one sweep's values, not a sum over devices
                windows = snapshot["sacha_arq_window"]["samples"]
                assert windows and all(s["value"] == 8.0 for s in windows)
                (cache_bytes,) = snapshot["sacha_cache_bytes"]["samples"]
                assert cache_bytes["value"] == (
                    get_artifact_cache().total_bytes()
                )

                assert result.rejected == ["dev-0005"]
                by_device = {row.device_id: row for row in store.history()}
                for outcome in result.outcomes:
                    row = by_device[outcome.device_id]
                    assert row.tag_hex == outcome.tag.hex()
                    assert row.verdict == outcome.verdict.value
                assert store.verdict_counts(result.sweep_id) == {
                    "accept": 7,
                    "reject": 1,
                }
                assert store.latest_snapshot() == snapshot

    def test_lossy_sweep_is_deterministic(self, tmp_path):
        """Two sequential lossy sweeps on fresh stores agree exactly."""
        results = []
        for name in ("a", "b"):
            with FleetStore(tmp_path / f"{name}.db") as store:
                _enroll(store, 6)
                reset_artifact_cache()
                results.append(
                    FleetController(
                        store, fault_profile=PROFILES["lossy"]
                    ).attest(seed=9)
                )
        first, second = results
        assert [o.tag for o in first.outcomes] == [
            o.tag for o in second.outcomes
        ]
        assert [o.attempts for o in first.outcomes] == [
            o.attempts for o in second.outcomes
        ]
        assert first.snapshot == second.snapshot


class TestVerdictsAndExitCodes:
    def test_all_accept_exits_zero(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 2)
            result = FleetController(store).attest(seed=7)
            assert result.exit_code == 0
            assert len(result.accepted) == 2

    def test_tampered_device_rejected_exits_one(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 2)
            _enroll(store, 1, prefix="bad", tampered=True)
            result = FleetController(store).attest(seed=7)
            assert result.rejected == ["bad-0002"]
            assert result.exit_code == 1
            row = store.last_outcomes()["bad-0002"]
            assert row.verdict == "reject"
            assert row.mismatched_frames != ()

    def test_tampered_sim_medium_device_rejected_at_its_frame(self, tmp_path):
        """SIM-MEDIUM masks bit (frame 0, word 0, bit 0); the controller
        must tamper a bit the mask leaves visible, so the sweep rejects."""
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 1, part="SIM-MEDIUM")
            _enroll(store, 1, prefix="bad", tampered=True, part="SIM-MEDIUM")
            result = FleetController(store).attest(seed=7)
            assert result.accepted == ["dev-0000"]
            assert result.rejected == ["bad-0001"]
            system = materialize_device("SIM-MEDIUM", "bad-0001", seed=101)[0].system
            frame = system.first_unmasked_static_bit().frame_index
            (outcome,) = [o for o in result.outcomes if o.device_id == "bad-0001"]
            assert outcome.report.mismatched_frames == [frame]
            assert store.last_outcomes()["bad-0001"].mismatched_frames == (frame,)

    def test_key_mismatch_is_inconclusive_and_exits_two(self, tmp_path):
        """A corrupted registry key row folds into INCONCLUSIVE — worse
        than REJECT for the exit code, because nothing was learned."""
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 1)
            _enroll(store, 1, prefix="bad", tampered=True)
            corrupt = DeviceRecord(
                device_id="corrupt-0000",
                part="SIM-SMALL",
                seed=999,
                key_mode="puf",
                key=SecretBytes(b"\x00" * 16),
                tampered=False,
            )
            store.enroll(corrupt)
            result = FleetController(store).attest(seed=7)
            assert result.inconclusive == ["corrupt-0000"]
            assert result.exit_code == 2
            row = store.last_outcomes()["corrupt-0000"]
            assert row.failure_kind == "key_mismatch"

    def test_empty_selection_raises(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            with pytest.raises(FleetError, match="enroll"):
                FleetController(store).attest(seed=7)

    def test_bad_max_attempts_rejected(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            with pytest.raises(FleetError, match="attempt"):
                FleetController(store, max_attempts=0)


class TestSweepBookkeeping:
    def test_sweep_metrics_and_reattestation_priority(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 3)
            corrupt = DeviceRecord(
                device_id="corrupt-0000",
                part="SIM-SMALL",
                seed=999,
                key_mode="puf",
                key=SecretBytes(b"\x00" * 16),
                tampered=False,
            )
            store.enroll(corrupt)
            result = FleetController(store).attest(seed=7)

            fleet = result.snapshot["sacha_fleet_attestations_total"]
            by_verdict = {
                sample["labels"]["verdict"]: sample["value"]
                for sample in fleet["samples"]
            }
            assert by_verdict["accept"] == 3.0
            assert by_verdict["inconclusive"] == 1.0
            assert result.snapshot["sacha_fleet_queue_depth"]["samples"][0][
                "value"
            ] == 0.0
            sweeps = result.snapshot["sacha_fleet_sweeps_total"]
            assert sweeps["samples"][0]["value"] == 1.0

            # the inconclusive device schedules first next time
            ranked = store.select_for_attestation(limit=1)
            assert ranked[0].device_id == "corrupt-0000"

    def test_limit_attests_subset_only(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 5)
            result = FleetController(store).attest(seed=7, limit=2)
            assert len(result.outcomes) == 2
            assert len(store.history()) == 2

    def test_explicit_device_list_overrides_selection(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            devices = _enroll(store, 3)
            result = FleetController(store).attest(
                seed=7, devices=[devices[1]]
            )
            assert [o.device_id for o in result.outcomes] == ["dev-0001"]

    def test_verdict_enum_round_trip(self, tmp_path):
        with FleetStore(tmp_path / "fleet.db") as store:
            _enroll(store, 1)
            result = FleetController(store).attest(seed=7)
            assert result.outcomes[0].verdict is Verdict.ACCEPT
            assert result.by_verdict(Verdict.REJECT) == []
