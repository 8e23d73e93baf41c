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
from repro.net.channel import Channel, LatencyModel
from repro.sim.events import Simulator
from repro.timing.network import LAB_NETWORK
from repro.utils.rng import DeterministicRng

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def full_setup():
    system = build_sacha_system(XC6VLX240T)
    provisioned, record = provision_device(system, "prv-full", seed=2019)
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(2020))
    return system, provisioned, verifier


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

    @pytest.mark.parametrize("batch", [256, 1])
    def test_raw_transport_session_at_scale(self, full_setup, batch):
        """A loss-free raw link at paper scale: the burst's small readback
        and checksum commands overtake 6,600 config batches of 1,500
        bytes, and the reorder window must hold all of them."""
        _, provisioned, verifier = full_setup
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LatencyModel(base_ns=5_000.0)),
            provisioned.prover,
            verifier,
            DeterministicRng(4),
            readback_batch_frames=batch,
        )
        result = session.run()
        assert result.report.accepted
        assert result.attempts == 1

    def test_static_tamper_detected_at_scale(self, full_setup):
        system, provisioned, verifier = full_setup
        target = system.partition.static_frame_list()[1_000]
        provisioned.board.fpga.memory.flip_bit(target, 40, 13)
        result = run_attestation(provisioned.prover, verifier, DeterministicRng(2))
        assert not result.report.accepted
        assert result.report.mismatched_frames == [target]
        # Clean up for other module-scoped tests.
        provisioned.board.fpga.memory.flip_bit(target, 40, 13)
