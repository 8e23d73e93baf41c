"""Full XC6VLX240T runs — the paper's exact scale (marked slow).

These move all 28,488 real frames through the real AES-CMAC; one run
takes tens of seconds of wall-clock.  Deselect with ``-m 'not slow'``.
"""

from collections import Counter

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.prover import SachaProver
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.crypto.cmac import AesCmac
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import XC6VLX240T
from repro.fpga.registers import LiveRegisterFile
from repro.net.channel import Channel, LatencyModel
from repro.net.messages import decode_command, decode_response
from repro.sim.events import Simulator
from repro.timing.network import LAB_NETWORK
from repro.utils.rng import DeterministicRng

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def full_provisioned():
    system = build_sacha_system(XC6VLX240T)
    provisioned, record = provision_device(system, "prv-full", seed=2019)
    return system, provisioned, record


@pytest.fixture(scope="module")
def full_setup(full_provisioned):
    system, provisioned, record = full_provisioned
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(2020))
    return system, provisioned, verifier


#: Every frame one clean ARQ session at the default shape (window 8,
#: batch 256) puts on a 5 µs link, by direction and kind.  The prover
#: acks the configuration phase once; one ConfigAck per config batch
#: took 28,769 frames (6,600 ConfigAcks and 7,492 verifier ARQ ACKs).
FULL_DEVICE_CENSUS = {
    ("vrf->prv", "IcapConfigBatchCommand"): 6_600,
    ("vrf->prv", "IcapReadbackBatchCommand"): 112,
    ("vrf->prv", "MacChecksumCommand"): 1,
    ("vrf->prv", "ArqAck"): 1_783,
    ("prv->vrf", "ConfigAck"): 1,
    ("prv->vrf", "ReadbackBatchResponse"): 7_122,
    ("prv->vrf", "MacChecksumResponse"): 1,
    ("prv->vrf", "ArqAck"): 841,
}


class TestFullDevice:
    def test_full_protocol_at_paper_scale(self, full_setup):
        system, provisioned, verifier = full_setup
        result = run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(1),
            SessionOptions(network=LAB_NETWORK),
        )
        report = result.report
        assert report.accepted
        # Paper counts.
        assert report.config_steps == 26_400
        assert report.readback_steps == 28_488
        # Paper durations from the accumulated action model.
        assert report.timing.theoretical_ns / 1e9 == pytest.approx(1.443, abs=0.002)
        assert report.timing.total_ns / 1e9 == pytest.approx(28.5, abs=0.01)

    def test_per_frame_protocol_and_exact_sim_clock(self, full_setup, monkeypatch):
        """Default options run the paper's per-frame protocol: one
        ICAP_readback command and one prover MAC update per frame, and
        the sim clock lands exactly on Table 4's 1.443 s."""
        _, provisioned, verifier = full_setup
        commands = Counter()
        mac_updates = []
        handle_command = SachaProver.handle_command
        update = AesCmac.update

        def counting_handle_command(self, command):
            commands[type(command).__name__] += 1
            return handle_command(self, command)

        def counting_update(self, data):
            mac_updates.append(len(data))
            return update(self, data)

        monkeypatch.setattr(SachaProver, "handle_command", counting_handle_command)
        monkeypatch.setattr(AesCmac, "update", counting_update)
        result = run_attestation(
            provisioned.prover, verifier, DeterministicRng(3), SessionOptions()
        )
        assert result.report.accepted
        assert commands["IcapReadbackCommand"] == 28_488
        assert len(mac_updates) == 28_488
        assert set(mac_updates) == {XC6VLX240T.frame_bytes}
        timing = result.report.timing
        assert timing.config_ns == 282_216_000.0
        assert timing.readback_ns == 1_159_917_528.0
        assert timing.checksum_ns == 952.0
        assert timing.total_ns == 1_442_134_480.0
        assert timing.total_ns / 1e9 == pytest.approx(1.443, abs=0.001)

    def test_arq_session_census_at_scale(self, full_provisioned, monkeypatch):
        """The paper's device over the ARQ at the default shape: the exact
        frames of every kind, the sim clock that one ConfigAck per config
        batch gave, and the in-memory protocol's tag for the same
        verifier seed."""
        _, provisioned, record = full_provisioned
        # Each path simulates application activity from its own RNG
        # fork; one shared stream leaves the transport as the only
        # difference between the two tags.
        scramble = LiveRegisterFile.scramble
        monkeypatch.setattr(
            LiveRegisterFile,
            "scramble",
            lambda registers, rng: scramble(registers, DeterministicRng(7)),
        )
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=5_000.0))
        census = Counter()

        def tap(time_ns, direction, frame):
            if frame.payload[0] == 0x02:  # ARQ ACK
                census[direction, "ArqAck"] += 1
                return
            # ARQ DATA: type(1) + sequence(4) + SACHa message + CRC-32(4)
            decode = decode_command if direction == "vrf->prv" else decode_response
            census[direction, type(decode(frame.payload[5:-4])).__name__] += 1

        channel.add_tap(tap)
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            SachaVerifier(record.system, record.mac_key, DeterministicRng(4)),
            DeterministicRng(5),
        )
        result = session.run()
        assert result.report.accepted
        assert result.attempts == 1
        assert dict(census) == FULL_DEVICE_CENSUS
        assert result.frames_sent_by_verifier == 8_496
        assert result.frames_sent_by_prover == 7_965
        assert result.duration_ns == 36_988_016.0
        assert simulator.now_ns == 36_993_688.0
        in_memory = run_attestation(
            provisioned.prover,
            SachaVerifier(record.system, record.mac_key, DeterministicRng(4)),
            DeterministicRng(5),
        )
        assert in_memory.report.accepted
        assert session.tag == in_memory.tag

    def test_static_tamper_detected_at_scale(self, full_setup):
        system, provisioned, verifier = full_setup
        target = system.partition.static_frame_list()[1_000]
        provisioned.board.fpga.memory.flip_bit(target, 40, 13)
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(2))
        assert not result.report.accepted
        assert result.report.mismatched_frames == [target]
        # Clean up for other module-scoped tests.
        provisioned.board.fpga.memory.flip_bit(target, 40, 13)
