"""The artifact cache's contract: it changes speed, never answers.

Memo-warm runs, where same-part devices share one build, must be
byte-identical to cold runs, where every device builds its own system:
same MAC tags, same wire traces, same per-device verdicts, on both test
parts.
"""

from __future__ import annotations

import pytest

import repro.core.provisioning
from repro.cache import ArtifactCache, get_artifact_cache, reset_artifact_cache
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import materialize_device, provision_device
from repro.core.verifier import SachaVerifier
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.utils.rng import DeterministicRng

FLEET_SIZE = 3


@pytest.fixture(autouse=True)
def _fresh_cache():
    reset_artifact_cache()
    yield
    reset_artifact_cache()


def _enrolled_store(path, part):
    store = FleetStore(str(path))
    for index in range(FLEET_SIZE):
        device_id = f"prop-{index:04d}"
        _, record = materialize_device(part, device_id, seed=5200 + index)
        store.enroll(
            DeviceRecord(
                device_id=device_id,
                part=part,
                seed=5200 + index,
                key_mode="puf",
                key=record.mac_key,
            )
        )
    return store


def _sweep_outcomes(path, part):
    with _enrolled_store(path, part) as store:
        result = FleetController(store).attest(seed=11)
    return [
        (outcome.device_id, outcome.verdict.value, outcome.tag)
        for outcome in result.outcomes
    ]


@pytest.mark.parametrize("part", ["SIM-SMALL", "SIM-MEDIUM"])
def test_warm_sweeps_are_byte_identical_to_cold(tmp_path, part):
    """Cold (a build per device) and memo-warm sweeps agree tag-for-tag."""
    with pytest.MonkeyPatch.context() as patch:
        # Every materialize_device call gets a fresh, empty cache.
        patch.setattr(repro.core.provisioning, "get_artifact_cache", ArtifactCache)
        cold = _sweep_outcomes(tmp_path / "cold.db", part)
    reset_artifact_cache()
    populate = _sweep_outcomes(tmp_path / "populate.db", part)
    warm = _sweep_outcomes(tmp_path / "warm.db", part)
    assert populate == cold
    assert warm == cold
    assert all(tag is not None for _, _, tag in cold)
    assert [verdict for _, verdict, _ in cold] == ["accept"] * FLEET_SIZE


@pytest.mark.parametrize("part", ["SIM-SMALL", "SIM-MEDIUM"])
def test_warm_wire_trace_is_byte_identical_to_cold(part):
    """The protocol transcript — every message either way — matches."""

    def attest_once(cache):
        system = cache.get_system(part)
        provisioned, record = provision_device(system, "prop-wire", seed=311)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(312)
        )
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(313),
            SessionOptions(record_trace=True),
        )
        assert result.report.accepted
        return result.report.trace.to_jsonl()

    cold_trace = attest_once(ArtifactCache())  # a build of its own
    reset_artifact_cache()
    assert attest_once(get_artifact_cache()) == cold_trace  # cold build, memoized
    assert attest_once(get_artifact_cache()) == cold_trace  # memo-warm


def test_memo_hit_miss_counts_one_build_per_part(tmp_path):
    """One miss + N-1 hits for N same-part devices in a cold sweep."""
    from repro.obs.aggregate import rollup_snapshot_by_label

    with _enrolled_store(tmp_path / "fleet.db", "SIM-SMALL") as store:
        reset_artifact_cache()  # enrollment warmed the memo; start cold
        result = FleetController(store).attest(seed=11)
    hits = rollup_snapshot_by_label(
        result.snapshot, "sacha_cache_hits_total", "tier"
    )
    misses = rollup_snapshot_by_label(
        result.snapshot, "sacha_cache_misses_total", "tier"
    )
    assert (hits.get("memo", 0), misses.get("memo", 0)) == (FLEET_SIZE - 1, 1)
