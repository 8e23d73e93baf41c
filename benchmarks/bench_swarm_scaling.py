"""E13 — extension bench: swarm attestation scaling.

Sweeps fleet sizes and checks the scaling shape: the sequential sweep
grows linearly with the fleet, the parallel sweep stays flat (bounded
by the slowest member), and a single compromised member is always
localized regardless of fleet size.
"""

import pytest

from repro.cache import get_artifact_cache
from repro.core.provisioning import provision_device
from repro.core.swarm import SwarmAttestation, SwarmMember
from repro.core.verifier import SachaVerifier
from repro.utils.rng import DeterministicRng


def _fleet(size, compromise_index=None):
    """Provision a fleet on the shared SIM-SMALL system (built once)."""
    system = get_artifact_cache().get_system("SIM-SMALL")
    members = []
    for index in range(size):
        provisioned, record = provision_device(
            system, f"scale-{index}", seed=9100 + index
        )
        if index == compromise_index:
            frame = system.partition.static_frame_list()[0]
            provisioned.board.fpga.memory.flip_bit(frame, 0, 0)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(9200 + index)
        )
        members.append(SwarmMember(f"scale-{index}", provisioned.prover, verifier))
    return SwarmAttestation(members)


def test_swarm_scaling(benchmark):
    # Provisioning is set-up, not the sweep: only the attestations are timed.
    fleets = {size: _fleet(size) for size in (1, 2, 4, 8)}

    def sweep():
        return {
            size: fleet.run(DeterministicRng(size)) for size, fleet in fleets.items()
        }

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nfleet  sequential (ms)  parallel (ms)")
    for size, report in reports.items():
        print(
            f"{size:>5}  {report.sequential_ns / 1e6:>15.3f}  "
            f"{report.parallel_ns / 1e6:>13.3f}"
        )
        assert report.all_healthy
    # Linear sequential scaling, flat parallel scaling.
    assert reports[8].sequential_ns == pytest.approx(
        8 * reports[1].sequential_ns, rel=0.15
    )
    assert reports[8].parallel_ns == pytest.approx(
        reports[1].parallel_ns, rel=0.15
    )


def test_swarm_localization(benchmark):
    fleet = _fleet(6, compromise_index=4)
    report = benchmark.pedantic(
        lambda: fleet.run(DeterministicRng(77)), rounds=1, iterations=1
    )
    print("\n" + report.explain())
    assert report.compromised == ["scale-4"]
    assert len(report.healthy) == 5
