"""E3 — Table 4: total protocol timing.

Two levels:

* the analytic regeneration (counts × action times + network overhead)
  must land on the paper's 1.443 s theoretical / 28.5 s measured pair;
* an actual protocol execution on the medium test part, moving real
  frames through the real AES-CMAC, whose *accumulated model time*
  scales the same way (readback-dominated, network-dominated totals);
* the paper's per-frame protocol on the paper's device: 26,400
  ``ICAP_config`` and 28,488 ``ICAP_readback`` steps per round, landing
  on Table 4's 1.443 s of model time with a pinned MAC tag.
"""

import hashlib

import pytest

from repro.analysis.experiments import e3_table4
from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.device import XC6VLX240T
from repro.timing.network import LAB_NETWORK
from repro.utils.rng import DeterministicRng

#: SHA-256 of the full-device leg's MAC tag (fixed seeds every round).
FULL_DEVICE_TAG_SHA256 = "402cc4559f111d9f730abad6e80310c410df1e89e29d921c974871f41eae5922"


@pytest.fixture(scope="module")
def xc6_stack():
    system = build_sacha_system(XC6VLX240T)
    return provision_device(system, "bench-xc6", seed=8300)


def test_table4_regeneration(benchmark):
    result = benchmark(e3_table4)
    print("\n" + result.rendered)
    assert result.theoretical_matches
    assert result.measured_matches


def test_protocol_execution_medium_scale(benchmark, medium_stack):
    """One full attestation run (functional, real MAC) per round."""
    provisioned, verifier = medium_stack
    counter = [0]

    def one_run():
        counter[0] += 1
        return run_attestation(
            provisioned.prover,
            verifier,
            DeterministicRng(counter[0]),
            SessionOptions(network=LAB_NETWORK),
        )

    result = benchmark.pedantic(one_run, rounds=3, iterations=1)
    report = result.report
    assert report.accepted
    # Shape: readback phase dominates the on-device time, and the
    # network overhead dominates the total — as in the paper.
    assert report.timing.readback_ns > report.timing.config_ns
    assert report.timing.network_overhead_ns > report.timing.theoretical_ns


def test_protocol_execution_full_device(benchmark, xc6_stack):
    """One in-memory XC6VLX240T attestation per round, fresh verifier."""
    provisioned, record = xc6_stack

    def fresh_run():
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(8301))
        return (provisioned.prover, verifier, DeterministicRng(8302)), {}

    result = benchmark.pedantic(
        run_attestation, setup=fresh_run, rounds=10, warmup_rounds=1
    )
    report = result.report
    assert report.accepted
    assert report.timing.total_ns == 1_442_134_480.0
    assert hashlib.sha256(result.tag).hexdigest() == FULL_DEVICE_TAG_SHA256
