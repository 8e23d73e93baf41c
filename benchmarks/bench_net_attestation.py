"""End-to-end networked attestation: one-frame stop-and-wait vs pipelined.

Every command and response crosses the simulated Ethernet channel with
the ARQ transport underneath — this measures the *wall-clock* cost of
driving the event loop, not the simulated protocol duration.  The
session has one state machine, parameterized by (window, batch).  The
stop-and-wait legs run window 1 and batch 1: one-index
``ICAP_readback_batch`` commands, one payload in flight, the paper's
per-frame exchange.  The pipelined legs run the defaults (window 8,
256-frame readback batches) and stream the whole command schedule ahead
of the responses.  Both must produce byte-identical MAC tags: the
transport shape is invisible to the protocol's cryptography.

The pipelined benchmark is the gated number for the networked hot path;
the stop-and-wait benchmark gates the per-payload cost of the same
state machine, so a regression in either shape is caught independently.

The degradation legs measure the same attestation under a fault
profile: a 5 % lossy link (adaptive AIMD window vs the one-frame
stop-and-wait shape a deployment could otherwise drop to) and a mid-run
outage.  ``bench_gate.py`` enforces that the adaptive pipelined
transport stays at least twice as fast as the stop-and-wait shape on
the lossy link — the headroom that justifies keeping pipelining on
under faults at all.  The stop-and-wait legs keep their historical
``lockstep``/``stop_and_wait`` names so they compare against the
committed baseline.
"""

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile, OutageWindow
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

#: The lossy-link leg: 5 % independent per-frame loss.
LOSSY = FaultProfile(loss_probability=0.05)

#: The outage leg: the link goes dark for 2 ms mid-configuration.
OUTAGE = FaultProfile(
    outages=(OutageWindow(1_000_000.0, 3_000_000.0),)
)


def _make_session(window, batch, profile=None):
    system = build_sacha_system(SIM_MEDIUM)
    provisioned, record = provision_device(system, "bench-net", seed=2019)
    simulator = Simulator()
    model = None
    if profile is not None:
        model = FaultModel(profile, DeterministicRng(2021).fork("bench"))
    channel = Channel(
        simulator, LatencyModel(base_ns=5_000.0), fault_model=model
    )
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(7)
    )
    return NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(9),
        arq_tuning=ArqTuning(window=window),
        readback_batch_frames=batch,
    )


def _bench_session(benchmark, window, batch, rounds, profile=None):
    """Time ``session.run()`` on a fresh session per round (sessions are
    single-shot), returning the last run's (result, tag)."""
    state = {}

    def setup():
        state["session"] = _make_session(window, batch, profile=profile)
        return (), {}

    def run():
        state["result"] = state["session"].run()

    benchmark.pedantic(run, setup=setup, rounds=rounds, iterations=1)
    return state["result"], state["session"].tag


def test_net_stop_and_wait_attestation(benchmark):
    result, tag = _bench_session(benchmark, window=1, batch=1, rounds=5)
    assert result.report.accepted
    assert tag is not None


def test_net_pipelined_attestation(benchmark):
    """The gated networked hot path: pipelined defaults over ARQ.

    Also asserts the transport shape is cryptographically invisible: the
    pipelined tag equals the stop-and-wait tag for the same seeds.
    """
    # The run is only a few ms, so the gate's ``min`` statistic needs
    # enough rounds to shake off allocator/cache warm-up noise.
    result, tag = _bench_session(benchmark, window=8, batch=256, rounds=25)
    assert result.report.accepted
    assert result.attempts == 1

    reference = _make_session(1, 1)
    ref_result = reference.run()
    assert ref_result.report.accepted
    assert tag == reference.tag
    assert result.report.nonce == ref_result.report.nonce


def test_net_adaptive_lossy_attestation(benchmark):
    """The degradation headline: pipelined transport with the AIMD
    window over a 5 % lossy link.  Gated against the stop-and-wait leg
    below (must stay >= 2x faster) and against the clean-link baseline.

    Also asserts faults stay invisible to the crypto: the tag equals the
    clean-link stop-and-wait tag for the same seeds.
    """
    result, tag = _bench_session(
        benchmark, window=8, batch=256, rounds=10, profile=LOSSY,
    )
    assert result.report.accepted
    assert result.attempts == 1

    reference = _make_session(1, 1)
    reference.run()
    assert tag == reference.tag


def test_net_lockstep_lossy_attestation(benchmark):
    """The shape a deployment could drop to under sustained loss:
    window 1, batch 1, one payload per round trip, same 5 % lossy link."""
    result, _ = _bench_session(
        benchmark, window=1, batch=1, rounds=5, profile=LOSSY,
    )
    assert result.report.accepted


def test_net_adaptive_outage_attestation(benchmark):
    """A 2 ms mid-run outage: the ARQ rides it out on retransmission
    backoff, the AIMD window collapses and regrows, the run accepts."""
    result, _ = _bench_session(
        benchmark, window=8, batch=256, rounds=10, profile=OUTAGE,
    )
    assert result.report.accepted
    assert result.attempts == 1
