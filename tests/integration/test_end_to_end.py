"""End-to-end integration: full lifecycle across subsystems."""

import pytest

from repro import quick_attestation
from repro.core.net_session import NetworkAttestationSession
from repro.core.orders import PermutationOrder, RepeatedFramesOrder
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import VerifierDatabase, provision_device
from repro.core.verifier import SachaVerifier
from repro.design.cores import APP_AES_ACCELERATOR
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.net.channel import Channel, LatencyModel
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


class TestLifecycle:
    def test_quickstart_api(self):
        report = quick_attestation(SIM_SMALL, seed=99)
        assert report.accepted

    def test_power_cycle_then_attest(self):
        """Reboot wipes DynMem; the next attestation reconfigures and
        passes again."""
        system = build_sacha_system(SIM_MEDIUM)
        provisioned, record = provision_device(system, "prv-cycle", seed=5)
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(6))
        assert run_attestation(
            provisioned.prover, verifier, DeterministicRng(7)
        ).report.accepted

        provisioned.board.power_off()
        provisioned.board.power_on()
        system.static_impl.declare_registers(provisioned.board.fpga.registers)
        assert run_attestation(
            provisioned.prover, verifier, DeterministicRng(8)
        ).report.accepted

    def test_application_update_changes_golden(self):
        """Deploying a new application: the old verifier record rejects a
        device configured by the new one, and vice versa — attestation is
        bound to the exact intended configuration."""
        old_system = build_sacha_system(SIM_MEDIUM)
        new_system = build_sacha_system(
            SIM_MEDIUM, app_cores=[APP_AES_ACCELERATOR]
        )
        provisioned, record = provision_device(old_system, "prv-upd", seed=9)
        new_verifier = SachaVerifier(
            new_system, record.mac_key, DeterministicRng(10)
        )
        # The new verifier *re-configures* the DynPart with its own
        # application during the run, so attestation succeeds — this is
        # exactly the secure-update story.
        result = run_attestation(provisioned.prover, new_verifier, DeterministicRng(11))
        assert result.report.accepted

        # But the old verifier now sees the new application and rejects.
        old_verifier = SachaVerifier(
            old_system, record.mac_key, DeterministicRng(12),
        )
        stale = old_verifier.evaluate(
            result.nonce, result.plan, result.sweep, result.tag
        )
        assert not stale.accepted

    def test_fleet_with_verifier_database(self):
        database = VerifierDatabase()
        provisioned_devices = []
        for index in range(3):
            system = build_sacha_system(SIM_SMALL)
            provisioned, record = provision_device(
                system, f"fleet-{index}", seed=100 + index
            )
            database.register(record)
            provisioned_devices.append(provisioned)

        for index, provisioned in enumerate(provisioned_devices):
            record = database.lookup(f"fleet-{index}")
            verifier = SachaVerifier(
                record.system, record.mac_key, DeterministicRng(200 + index)
            )
            assert run_attestation(
                provisioned.prover, verifier, DeterministicRng(300 + index)
            ).report.accepted

    def test_cross_device_key_rejected(self):
        """Using device A's key record against device B fails on the MAC."""
        database = VerifierDatabase()
        systems = [build_sacha_system(SIM_SMALL) for _ in range(2)]
        devices = []
        for index, system in enumerate(systems):
            provisioned, record = provision_device(
                system, f"x-{index}", seed=400 + index
            )
            database.register(record)
            devices.append(provisioned)
        wrong_record = database.lookup("x-0")
        verifier = SachaVerifier(
            systems[1], wrong_record.mac_key, DeterministicRng(500)
        )
        result = run_attestation(devices[1].prover, verifier, DeterministicRng(501))
        assert not result.report.mac_valid


class TestOrderIntegration:
    @pytest.mark.parametrize("order_factory", [
        lambda rng: PermutationOrder(rng),
        lambda rng: RepeatedFramesOrder(rng, repeat_fraction=0.3),
    ])
    def test_exotic_orders_accept_honest_prover(self, order_factory):
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-ord", seed=600)
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(601),
            order=order_factory(DeterministicRng(602)),
        )
        assert run_attestation(
            provisioned.prover, verifier, DeterministicRng(603)
        ).report.accepted


class TestConsistencyAcrossRunners:
    def test_direct_and_network_runner_agree(self):
        """The in-memory driver and the wire-level session must reach the
        same verdict on the same device state."""
        system = build_sacha_system(SIM_SMALL)

        provisioned_a, record_a = provision_device(system, "prv-a", seed=700)
        direct = run_attestation(
            provisioned_a.prover,
            SachaVerifier(record_a.system, record_a.mac_key, DeterministicRng(701)),
            DeterministicRng(702),
        )

        provisioned_b, record_b = provision_device(system, "prv-b", seed=700)
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=100.0))
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned_b.prover,
            SachaVerifier(record_b.system, record_b.mac_key, DeterministicRng(701)),
            DeterministicRng(702),
        )
        networked = session.run()
        assert direct.report.accepted == networked.report.accepted is True
