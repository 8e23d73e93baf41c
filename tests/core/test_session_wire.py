"""Whole-session wire pins for the networked attestation.

The ARQ fingerprints in ``tests/properties/test_property_arq.py`` cover
bare ARQ exchanges.  These cover complete SIM-MEDIUM sessions:
configuration batches, readback batches, ConfigAcks, response
fragments, ARQ ACKs or resequencer headers, and the tag.  A change that
only makes the simulated network cheaper to run, or that only removes
code, must leave every one of them as it is:

* a SHA-256 over every ``(direction, payload)`` the channel carries,
  taken by a tap, so lost frames count too;
* the final simulator clock;
* ``frames_sent`` of both endpoints;
* the MAC tag.

``pipelined-clean``, ``pipelined-lossy`` and ``raw-clean`` were captured
before the session had a single state machine, so they prove that
folding the per-frame loop into the batched one changed no byte,
timestamp or RNG draw of the shapes it kept.  ``one-frame-clean`` pins
the (window 1, batch 1) shape on that single state machine; its tag is
the one every other shape produces.

Telemetry only observes: every pinned shape, and the ``harsh`` fault
profile over ARQ, gives the same fingerprint and the same number of
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

#: name -> (reliable, window, batch, loss, (wire sha256, final now_ns,
#: verifier frames_sent, prover frames_sent, tag hex)).
SESSION_PINS = {
    "pipelined-clean": (True, 8, 256, 0.0, (
        "1b3cda842a3ec36e0e9369c95ebba8d4350bc1394afe9c57d33248454c5e7f5b",
        51496.0, 22, 16, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
    "pipelined-lossy": (True, 8, 256, 0.05, (
        "6b1a84bcf82349f406dda44e156b0b83cf26bdec627f6db6ffe4ae08bb40bd65",
        2226656.79064352, 40, 35, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
    "raw-clean": (False, 8, 256, 0.0, (
        "cef7a24e30954f936ebb7c7846e16d927c423ffddd79d89f4ebc95ec461b97a4",
        34464.0, 9, 14, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
    "one-frame-clean": (True, 1, 1, 0.0, (
        "531e490d882cfc9eefc0d42dbc8e5e9f80e6c17acc6403402aee922cc99e5ebd",
        3426168.0, 590, 590, "fb36bc5dba08ec50e1eccf652b2deec7",
    )),
}


#: name -> (reliable, window, batch, fault profile) of every pinned
#: shape, plus the harsh profile over ARQ.
SHAPES = {
    name: (reliable, window, batch, FaultProfile(loss_probability=loss))
    for name, (reliable, window, batch, loss, _) in SESSION_PINS.items()
}
SHAPES["harsh"] = (True, 8, 256, FaultProfile.named("harsh"))


def session_fingerprint(
    provisioned_medium, reliable, window, batch, profile, telemetry=False
):
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
        reliable=reliable,
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
