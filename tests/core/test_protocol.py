"""Integration tests for the full protocol driver."""

import pytest

from repro.core.protocol import SessionOptions, attest, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.timing.network import LAB_NETWORK
from repro.utils.rng import DeterministicRng


class TestHonestRuns:
    def test_small_device(self, provisioned_small, verifier_small):
        device, _ = provisioned_small
        report = attest(device.prover, verifier_small, DeterministicRng(1))
        assert report.accepted

    def test_medium_device(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        report = attest(device.prover, verifier_medium, DeterministicRng(1))
        assert report.accepted

    def test_repeated_attestations_stay_fresh(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        tags = set()
        for run in range(3):
            result = run_attestation(
                device.prover, verifier_medium, DeterministicRng(run)
            )
            assert result.report.accepted
            tags.add(result.tag)
        assert len(tags) == 3  # fresh nonce => fresh MAC every run

    def test_register_key_mode(self):
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(
            system, "prv-reg", seed=9, key_mode="register"
        )
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(2))
        assert attest(provisioned.prover, verifier, DeterministicRng(3)).accepted

    def test_running_application_is_masked_out(self, provisioned_medium, verifier_medium):
        """Scrambled live registers must not break attestation — the Msk
        absorbs them (Section 6.1)."""
        device, _ = provisioned_medium
        report = attest(
            device.prover,
            verifier_medium,
            DeterministicRng(4),
            SessionOptions(scramble_registers=True),
        )
        assert report.accepted

    def test_quiesced_application_also_passes(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        report = attest(
            device.prover,
            verifier_medium,
            DeterministicRng(4),
            SessionOptions(scramble_registers=False),
        )
        assert report.accepted


class TestStepCounts:
    def test_config_steps_equal_dynmem_frames(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        result = run_attestation(device.prover, verifier_medium, DeterministicRng(5))
        assert result.report.config_steps == (
            verifier_medium.system.partition.dynamic_frame_count
        )

    def test_readback_steps_equal_total_frames(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        result = run_attestation(device.prover, verifier_medium, DeterministicRng(5))
        assert result.report.readback_steps == SIM_MEDIUM.total_frames

    def test_prover_counters_agree(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        run_attestation(device.prover, verifier_medium, DeterministicRng(5))
        assert device.prover.configs_handled == (
            verifier_medium.system.partition.dynamic_frame_count
        )
        assert device.prover.readbacks_handled == SIM_MEDIUM.total_frames
        assert device.prover.checksums_handled == 1


class TestTiming:
    def test_timing_breakdown_present(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        result = run_attestation(device.prover, verifier_medium, DeterministicRng(6))
        timing = result.report.timing
        assert timing.config_ns > 0
        assert timing.readback_ns > timing.config_ns  # readback covers more frames
        assert timing.total_ns == pytest.approx(
            timing.theoretical_ns + timing.network_overhead_ns
        )

    def test_network_overhead_accounted(self, provisioned_medium, verifier_medium):
        device, _ = provisioned_medium
        with_lab = run_attestation(
            device.prover,
            verifier_medium,
            DeterministicRng(7),
            SessionOptions(network=LAB_NETWORK),
        )
        commands = (
            with_lab.report.config_steps + with_lab.report.readback_steps + 1
        )
        assert with_lab.report.timing.network_overhead_ns == pytest.approx(
            commands * LAB_NETWORK.per_command_overhead_ns
        )


class TestSimClockExactness:
    """The sim clock is the paper's time axis: each path's breakdown must
    equal, to the last bit, what the per-action accumulation produced."""

    @pytest.mark.parametrize(
        "options, readback_ns",
        [
            (SessionOptions(), 10_212_600.0),
            (SessionOptions(mask_at_prover=True), 10_371_576.0),
        ],
        ids=["per-frame", "mask-at-prover"],
    )
    def test_sim_medium_breakdown_is_exact(
        self, provisioned_medium, verifier_medium, options, readback_ns
    ):
        device, _ = provisioned_medium
        result = run_attestation(
            device.prover, verifier_medium, DeterministicRng(6), options
        )
        assert result.report.accepted
        timing = result.report.timing
        assert timing.config_ns == 631_728.0
        assert timing.readback_ns == readback_ns
        assert timing.checksum_ns == 952.0
        assert timing.network_overhead_ns == 0.0


class TestTrace:
    def test_trace_shape_matches_figure9(self, provisioned_small, verifier_small):
        device, _ = provisioned_small
        result = run_attestation(
            device.prover,
            verifier_small,
            DeterministicRng(8),
            SessionOptions(record_trace=True),
        )
        trace = result.report.trace
        kinds = trace.kinds_in_order()
        assert kinds == [
            "ICAP_config",
            "ICAP_readback",
            "MAC_init",
            "ICAP_readback",
            "MAC_checksum",
            "MAC_response",
        ] or kinds == [
            "ICAP_config",
            "MAC_init",
            "ICAP_readback",
            "MAC_checksum",
            "MAC_response",
        ]
        counts = trace.counts_by_kind()
        assert counts["ICAP_config"] == result.report.config_steps
        assert counts["ICAP_readback"] == result.report.readback_steps
        assert counts["MAC_init"] == 1
        assert counts["MAC_checksum"] == 1

    def test_trace_disabled_by_default(self, provisioned_small, verifier_small):
        device, _ = provisioned_small
        result = run_attestation(device.prover, verifier_small, DeterministicRng(8))
        assert result.report.trace is None
