"""FleetController: sharded sweeps, determinism, persistence, exit codes."""

import pytest

from repro.core.provisioning import materialize_device
from repro.core.report import Verdict
from repro.errors import FleetError
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.net.faults import FaultProfile
from repro.utils.secret import SecretBytes


def _assert_snapshots_equivalent(left, right):
    """Counters and histograms merge losslessly across shards up to
    float association (per-shard partial sums add in a different order),
    so event counts compare exactly and sums approximately.  Gauges are
    last-write-wins sequentially but sum in a merge, and are excluded
    from the equivalence claim."""
    trimmed = [
        {
            name: family
            for name, family in snapshot.items()
            if family["kind"] != "gauge"
        }
        for snapshot in (left, right)
    ]
    assert sorted(trimmed[0]) == sorted(trimmed[1])
    for name, family in trimmed[0].items():
        other = trimmed[1][name]
        for sample, other_sample in zip(
            family["samples"], other["samples"], strict=True
        ):
            assert sample["labels"] == other_sample["labels"]
            if family["kind"] == "histogram":
                assert sample["count"] == other_sample["count"]
                assert sample["bucket_counts"] == other_sample["bucket_counts"]
                assert sample["sum"] == pytest.approx(other_sample["sum"])
            else:
                assert sample["value"] == pytest.approx(other_sample["value"])


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
    def test_sharded_sweep_matches_sequential_byte_for_byte(self, tmp_path):
        """The acceptance criterion: >= 32 devices through the sharded
        controller produce per-device MAC tags byte-identical to the
        sequential run, and every verdict/snapshot is queryable after."""
        with FleetStore(tmp_path / "seq.db") as sequential_store, \
                FleetStore(tmp_path / "par.db") as sharded_store:
            _enroll(sequential_store, 32)
            _enroll(sharded_store, 32)
            sequential = FleetController(sequential_store).attest(
                seed=7, workers=1
            )
            sharded = FleetController(sharded_store).attest(seed=7, workers=4)

            assert len(sharded.outcomes) == 32
            for left, right in zip(sequential.outcomes, sharded.outcomes):
                assert left.device_id == right.device_id
                assert left.verdict is right.verdict
                assert left.tag == right.tag
                assert left.tag is not None
                assert left.report.nonce == right.report.nonce
            _assert_snapshots_equivalent(
                sequential.snapshot, sharded.snapshot
            )

            # everything is queryable from the store afterwards
            history = sharded_store.history()
            assert len(history) == 32
            by_device = {row.device_id: row for row in history}
            for outcome in sharded.outcomes:
                row = by_device[outcome.device_id]
                assert row.tag_hex == outcome.tag.hex()
                assert row.verdict == "accept"
            assert sharded_store.verdict_counts(sharded.sweep_id) == {
                "accept": 32
            }
            assert sharded_store.latest_snapshot() == sharded.snapshot

    def test_lossy_sweep_is_deterministic_across_worker_counts(self, tmp_path):
        with FleetStore(tmp_path / "a.db") as store_a, \
                FleetStore(tmp_path / "b.db") as store_b:
            _enroll(store_a, 6)
            _enroll(store_b, 6)
            profile = FaultProfile(loss_probability=0.05)
            first = FleetController(store_a, fault_profile=profile).attest(
                seed=9, workers=1
            )
            second = FleetController(store_b, fault_profile=profile).attest(
                seed=9, workers=3
            )
            assert [o.tag for o in first.outcomes] == [
                o.tag for o in second.outcomes
            ]
            assert [o.attempts for o in first.outcomes] == [
                o.attempts for o in second.outcomes
            ]


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
