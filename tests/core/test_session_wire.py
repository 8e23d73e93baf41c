"""Whole-session wire pins for the networked attestation.

The ARQ fingerprints in ``tests/properties/test_property_arq.py`` cover
bare ARQ exchanges.  These cover complete SIM-MEDIUM sessions:
configuration batches, readback batches, ConfigAcks, response
fragments, ARQ ACKs and the tag.  A change that only makes the
simulated network cheaper to run, or that only removes code, must leave
every one of them as it is:

* a SHA-256 over every ``(direction, payload)`` the channel carries,
  taken by a tap, so lost frames count too;
* the final simulator clock;
* ``frames_sent`` of both endpoints;
* the MAC tag.

Every pin was re-captured once when the prover went from one
ConfigAck per config batch to one per configuration phase.  SIM-MEDIUM
configures in six batches, so each session carries five ConfigAcks
fewer, and the ARQ ACKs they drew.  The tags did not move.
The sim clock moved where the acks shared a window with the first
read-back fragments (``pipelined-*`` finish earlier) and at window 1,
where the one ack now waits a round trip ahead of the first fragment
(``one-frame-clean`` finishes 11.3 µs later); the lossy link's fault
stream lands on other frames.  ``one-frame-clean`` pins the
(window 1, batch 1) shape; its tag is the one every other shape
produces.

Telemetry only observes: every pinned shape, and the ``harsh`` fault
profile, gives the same fingerprint and the same number of
retransmissions with an enabled registry as with a disabled one.
"""

import hashlib

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.verifier import SachaVerifier
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

LINK = LatencyModel(base_ns=5_000.0)

#: name -> (window, batch, loss, (wire sha256, final now_ns, verifier
#: frames_sent, prover frames_sent, tag hex)).
SESSION_PINS = {
    "pipelined-clean": (8, 256, 0.0, (
        "bb98ed0e30dbf21bfc4d94085fda30b5069e4d36fdfbe6df48824238cc7ff548",
        40152.0, 14, 11, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
    "pipelined-lossy": (8, 256, 0.05, (
        "dabd4319c54ec786b9e8f1be6e2062ef887de39276558dc4c2a826a53205705f",
        2211728.79064352, 17, 17, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
    "one-frame-clean": (1, 1, 0.0, (
        "2c10a13f1f9e158676b94daa1945bf11a3d39713db1751acd35b3ec6fd0c5adc",
        3437512.0, 585, 585, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
}


#: name -> (window, batch, fault profile) of every pinned shape, plus
#: the harsh profile.
SHAPES = {
    name: (window, batch, FaultProfile(loss_probability=loss))
    for name, (window, batch, loss, _) in SESSION_PINS.items()
}
SHAPES["harsh"] = (8, 256, FaultProfile.named("harsh"))


def session_fingerprint(provisioned_medium, window, batch, profile, telemetry=False):
    """Run one seeded session and fingerprint everything it put on the wire.

    Returns the pinned fingerprint and the session's retransmissions.
    """
    provisioned, record = provisioned_medium
    rng = DeterministicRng(2019)
    simulator = Simulator()
    faults = FaultModel(profile, rng.fork("faults"))
    channel = Channel(
        simulator, LINK, fault_model=faults if profile.is_active else None
    )
    wire = hashlib.sha256()

    def tap(time_ns, direction, frame):
        wire.update(direction.encode())
        wire.update(len(frame.payload).to_bytes(2, "big"))
        wire.update(frame.payload)

    channel.add_tap(tap)
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        SachaVerifier(record.system, record.mac_key, rng.fork("verifier")),
        rng.fork("session"),
        arq_tuning=ArqTuning(window=window),
        readback_batch_frames=batch,
        max_attempts=3,
    )
    with use_registry(MetricsRegistry(enabled=telemetry)):
        result = session.run()
    assert result.report.accepted
    fingerprint = (
        wire.hexdigest(),
        simulator.now_ns,
        result.frames_sent_by_verifier,
        result.frames_sent_by_prover,
        session.tag.hex(),
    )
    return fingerprint, session.total_retransmissions


@pytest.mark.parametrize("name", sorted(SESSION_PINS))
def test_session_wire_matches_pin(provisioned_medium, name):
    *_, pinned = SESSION_PINS[name]
    fingerprint, _ = session_fingerprint(provisioned_medium, *SHAPES[name])
    assert fingerprint == pinned


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_telemetry_leaves_the_session_unchanged(provisioned_medium, name):
    quiet = session_fingerprint(provisioned_medium, *SHAPES[name])
    observed = session_fingerprint(
        provisioned_medium, *SHAPES[name], telemetry=True
    )
    assert observed == quiet
