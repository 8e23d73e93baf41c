"""Fleet control-plane sweep: the persistent attestation path.

One sweep re-materializes every enrolled device from its registry
facts, drives a full networked attestation session per device, one
device after another, and persists every verdict plus the sweep's
metrics snapshot back into SQLite — so this measures the whole control
plane, not just the protocol: provisioning, simulation, ARQ transport,
telemetry, and the store's transaction per record.

``test_fleet_sweep_sequential`` is the gated sweep; its per-device MAC
tags must match a digest pinned before the sweep thread pool was
removed.  ``cold_rebuild`` runs the same sweep with a fresh, empty
artifact cache handed to every materialization, so every device pays a
full system build, and the ``materialize_dedup`` leg pins the in-sweep
dedup itself: eight same-part materializations against a fresh memo
cost one build.
"""

import hashlib

import repro.core.provisioning
from repro.cache import ArtifactCache, reset_artifact_cache
from repro.core.provisioning import materialize_device
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore

FLEET_SIZE = 8
#: SHA-256 over the concatenated per-device tags of ``attest(seed=7)``.
TAGS_SHA256 = "db963bc7d81a9616ec5da8897b85a4e8e5a35a8c451383d754bcc48b72ebae00"


def _enrolled_store(path):
    store = FleetStore(path)
    for index in range(FLEET_SIZE):
        device_id = f"bench-{index:04d}"
        _, record = materialize_device(
            "SIM-SMALL", device_id, seed=9300 + index
        )
        store.enroll(
            DeviceRecord(
                device_id=device_id,
                part="SIM-SMALL",
                seed=9300 + index,
                key_mode="puf",
                key=record.mac_key,
            )
        )
    return store


def _bench_sweep(benchmark, tmp_path, rounds):
    state = {"round": 0}

    def setup():
        # A fresh registry per round: the sweep must include the store's
        # per-record transactions, not hit a warm page cache of rows.
        state["round"] += 1
        state["store"] = _enrolled_store(tmp_path / f"fleet-{state['round']}.db")
        return (), {}

    def run():
        state["result"] = FleetController(state["store"]).attest(seed=7)
        state["store"].close()

    benchmark.pedantic(run, setup=setup, rounds=rounds, iterations=1)
    return state["result"]


def test_fleet_sweep_sequential(benchmark, tmp_path):
    """The gated control-plane number: 8 devices, one after another;
    the tags must match the pinned digest byte-for-byte."""
    result = _bench_sweep(benchmark, tmp_path, rounds=3)
    assert len(result.accepted) == FLEET_SIZE
    assert result.exit_code == 0
    assert "sacha_fleet_attestations_total" in result.snapshot
    tags = b"".join(outcome.tag for outcome in result.outcomes)
    assert hashlib.sha256(tags).hexdigest() == TAGS_SHA256


def test_fleet_sweep_cold_rebuild(benchmark, tmp_path, monkeypatch):
    """The cold baseline: every device rebuilds its system."""
    monkeypatch.setattr(
        repro.core.provisioning, "get_artifact_cache", ArtifactCache
    )
    result = _bench_sweep(benchmark, tmp_path, rounds=3)
    assert len(result.accepted) == FLEET_SIZE


def test_materialize_dedup(benchmark):
    """Eight same-part materializations, fresh memo each round: one
    build plus seven shared hits — the in-sweep dedup in isolation."""

    def setup():
        reset_artifact_cache()
        return (), {}

    def run():
        for index in range(FLEET_SIZE):
            materialize_device(
                "SIM-SMALL", f"dedup-{index:04d}", seed=9300 + index
            )

    benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    reset_artifact_cache()
