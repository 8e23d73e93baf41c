"""E18 — extension: batching both protocol phases.

The E7 ablation shows config batching floors at the 28,488 readback
round trips; batched readback (``ICAP_readback_batch``) removes those
too.  The sweep projects the paper-scale duration collapsing from
28.5 s to ~1 s (the bound where every frame crosses the ICAP and the
wire exactly once); it is analytic and runs no protocol.  The
functional benchmark runs real networked sessions and verifies that
batching keeps the tag and cuts the simulated protocol time.
"""

import pytest

from repro.analysis.experiments import e18_full_batching
from repro.core.net_session import NetworkAttestationSession
from repro.core.orders import SequentialOrder
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


def test_full_batching_projection(benchmark):
    result = benchmark(e18_full_batching)
    print("\n" + result.rendered)
    rows = {row.batch_frames: row for row in result.rows}
    assert rows[1].duration_s == pytest.approx(28.5, abs=0.1)
    # Large batches approach the floor within 10 %.
    assert rows[1024].duration_s < result.theoretical_floor_s * 1.10
    # Batching wins more than an order of magnitude.
    assert rows[1024].duration_s < rows[1].duration_s / 20


def test_batched_run_functional(benchmark):
    """Real batched sessions: accepted, same tag as one-frame batches,
    and far less simulated protocol time when every payload waits a
    round trip (ARQ window 1)."""
    system = build_sacha_system(SIM_MEDIUM)
    provisioned, record = provision_device(system, "bench-batch", seed=9300)

    def one_run(batch):
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LatencyModel(base_ns=5_000.0)),
            provisioned.prover,
            SachaVerifier(
                record.system,
                record.mac_key,
                DeterministicRng(9301),
                order=SequentialOrder(),
            ),
            DeterministicRng(9302),
            arq_tuning=ArqTuning(window=1),
            readback_batch_frames=batch,
        )
        return session.run(), session.tag

    result, tag = benchmark.pedantic(one_run, args=(32,), rounds=3, iterations=1)
    assert result.report.accepted

    plain, plain_tag = one_run(1)
    assert plain.report.accepted
    assert tag == plain_tag
    assert result.duration_ns < plain.duration_ns / 2
