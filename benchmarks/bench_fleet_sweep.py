"""Fleet control-plane sweep: the persistent, sharded attestation path.

One sweep re-materializes every enrolled device from its registry
facts, drives a full networked attestation session per device through
the sharded worker pool, and persists every verdict plus the merged
metrics snapshot back into SQLite — so this measures the whole control
plane, not just the protocol: provisioning, simulation, ARQ transport,
telemetry sharding/merging, and the store's transaction per record.

The sharded leg is the gated number.  The sequential leg pins the
single-worker shape, and the two must produce byte-identical per-device
MAC tags — the determinism contract the fleet controller inherits from
the swarm executor.

``cold_rebuild`` runs the sharded sweep with the artifact cache
bypassed, so every device pays a full system build, and the
``materialize_dedup`` leg pins the in-sweep dedup itself: eight
same-part materializations against a fresh memo cost one build.
"""

from repro.cache import reset_artifact_cache
from repro.core.provisioning import materialize_device
from repro.fleet.controller import FleetController
from repro.fleet.store import DeviceRecord, FleetStore
from repro.perf.config import configured

FLEET_SIZE = 8
WORKERS = 4


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


def _bench_sweep(benchmark, tmp_path, workers, rounds):
    state = {"round": 0}

    def setup():
        # A fresh registry per round: the sweep must include the store's
        # per-record transactions, not hit a warm page cache of rows.
        state["round"] += 1
        state["store"] = _enrolled_store(
            tmp_path / f"fleet-{workers}-{state['round']}.db"
        )
        return (), {}

    def run():
        state["result"] = FleetController(state["store"]).attest(
            seed=7, workers=workers
        )
        state["store"].close()

    benchmark.pedantic(run, setup=setup, rounds=rounds, iterations=1)
    return state["result"]


def test_fleet_sweep_sharded(benchmark, tmp_path):
    """The gated control-plane number: 8 devices over 4 worker shards."""
    result = _bench_sweep(benchmark, tmp_path, workers=WORKERS, rounds=5)
    assert len(result.accepted) == FLEET_SIZE
    assert result.exit_code == 0
    assert "sacha_fleet_attestations_total" in result.snapshot


def test_fleet_sweep_sequential(benchmark, tmp_path):
    """The single-worker shape, and the determinism cross-check: tags
    must equal the sharded run's byte-for-byte."""
    sequential = _bench_sweep(benchmark, tmp_path, workers=1, rounds=3)
    assert len(sequential.accepted) == FLEET_SIZE

    with _enrolled_store(tmp_path / "fleet-ref.db") as store:
        sharded = FleetController(store).attest(seed=7, workers=WORKERS)
    assert [outcome.tag for outcome in sequential.outcomes] == [
        outcome.tag for outcome in sharded.outcomes
    ]
    assert all(outcome.tag is not None for outcome in sequential.outcomes)


def test_fleet_sweep_cold_rebuild(benchmark, tmp_path):
    """The cache-bypassed baseline: every device rebuilds its system."""
    with configured(artifact_cache=False):
        result = _bench_sweep(benchmark, tmp_path, workers=WORKERS, rounds=3)
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
