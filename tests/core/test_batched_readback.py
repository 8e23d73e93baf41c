"""Batched readback over the networked session.

The session reads the configuration back with ``ICAP_readback_batch``
commands of up to ``readback_batch_frames`` indices; one index is the
paper's per-frame step.  Batching changes how frames are grouped on the
wire, never what the prover folds into the MAC or which frame the
verifier blames for a mismatch.
"""

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.orders import PermutationOrder, SequentialOrder
from repro.core.provisioning import provision_device
from repro.core.report import Verdict
from repro.core.verifier import SachaVerifier
from repro.errors import ProtocolError
from repro.fpga.device import SIM_MEDIUM
from repro.net.arq import ArqTuning
from repro.net.batch import contiguous_runs, pack_readback_plan
from repro.net.channel import Channel, LatencyModel
from repro.net.messages import IcapReadbackBatchCommand
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


@pytest.fixture
def stack(medium_system):
    provisioned, record = provision_device(medium_system, "prv-batch", seed=6500)
    verifier = SachaVerifier(
        record.system,
        record.mac_key,
        DeterministicRng(6501),
        order=SequentialOrder(),
    )
    return provisioned, verifier


def _run(provisioned, verifier, batch, seed, window=8):
    """One session at (window, batch); returns (session, result)."""
    simulator = Simulator()
    session = NetworkAttestationSession(
        simulator,
        Channel(simulator, LatencyModel(base_ns=5_000.0)),
        provisioned.prover,
        verifier,
        DeterministicRng(seed),
        arq_tuning=ArqTuning(window=window),
        readback_batch_frames=batch,
    )
    return session, session.run()


def _range_reads(plan, batch_frames):
    """(start, count) of each bulk ICAP read the prover makes for a plan."""
    return [
        (run.start, len(run))
        for command in pack_readback_plan(plan, batch_frames)
        for run in contiguous_runs(command.frame_indices)
    ]


class TestContiguousBatches:
    def test_fully_contiguous_plan(self):
        assert _range_reads(list(range(10)), batch_frames=4) == [
            (0, 4),
            (4, 4),
            (8, 2),
        ]

    def test_offset_plan_has_two_runs(self):
        plan = [7, 8, 9, 0, 1, 2]
        assert _range_reads(plan, batch_frames=10) == [(7, 3), (0, 3)]

    def test_non_contiguous_degenerates_to_singles(self):
        assert _range_reads([5, 3, 9], batch_frames=8) == [(5, 1), (3, 1), (9, 1)]

    def test_batch_of_one(self):
        assert _range_reads([0, 1, 2], batch_frames=1) == [(0, 1), (1, 1), (2, 1)]


class TestBatchedRuns:
    @pytest.mark.parametrize("batch", [2, 16, 64])
    def test_honest_run_accepted(self, stack, batch):
        provisioned, verifier = stack
        _, result = _run(provisioned, verifier, batch, seed=batch)
        assert result.report.accepted
        assert result.report.readback_steps == SIM_MEDIUM.total_frames

    def test_same_tag_as_unbatched_for_same_nonce(self, medium_system):
        """Batching changes transport, not the MAC input stream."""
        provisioned, record = provision_device(medium_system, "prv-tag", seed=6700)

        def fresh_verifier():
            return SachaVerifier(
                record.system,
                record.mac_key,
                DeterministicRng(6701),
                order=SequentialOrder(),
            )

        plain, plain_result = _run(provisioned, fresh_verifier(), 1, seed=1)
        assert plain_result.report.accepted
        batched, batched_result = _run(provisioned, fresh_verifier(), 32, seed=1)
        assert batched_result.report.accepted
        # Identical verifier state => same nonce => same stream => same tag.
        assert plain_result.report.nonce == batched_result.report.nonce
        assert plain.tag == batched.tag

    def test_tamper_detected_and_localized(self, stack):
        provisioned, verifier = stack
        frame = verifier.system.partition.static_frame_list()[2]
        provisioned.board.fpga.memory.flip_bit(frame, 1, 5)
        _, result = _run(provisioned, verifier, 16, seed=2)
        assert result.report.verdict is Verdict.REJECT
        assert result.report.mismatched_frames == [frame]

    def test_batching_cuts_networked_duration(self, stack):
        """At window 1 every payload costs a round trip, so batching
        the readback cuts the simulated protocol time."""
        provisioned, verifier = stack
        _, plain = _run(provisioned, verifier, 1, seed=3, window=1)
        _, batched = _run(provisioned, verifier, 64, seed=4, window=1)
        assert plain.report.accepted and batched.report.accepted
        assert batched.duration_ns < plain.duration_ns / 2

    def test_permutation_order_degrades_gracefully(self, medium_system):
        """A non-contiguous plan still works — batches collapse to ones."""
        provisioned, record = provision_device(medium_system, "prv-perm", seed=6600)
        verifier = SachaVerifier(
            record.system,
            record.mac_key,
            DeterministicRng(6601),
            order=PermutationOrder(DeterministicRng(6602)),
        )
        _, result = _run(provisioned, verifier, 32, seed=5)
        assert result.report.accepted


class TestProverRangeHandling:
    """The prover serves a batch with one bulk ICAP range read per
    contiguous run of its indices."""

    def test_range_equals_individual_readbacks(self, stack):
        provisioned, _ = stack
        prover = provisioned.prover
        fragments = prover.handle_command(IcapReadbackBatchCommand(0, (0, 1, 2)))
        prover.abort_run()
        singles = b"".join(prover.handle_readback(i) for i in range(3))
        prover.abort_run()
        assert b"".join(fragment.data for fragment in fragments) == singles

    def test_bad_count_rejected(self, stack):
        provisioned, _ = stack
        with pytest.raises(ProtocolError):
            provisioned.prover.handle_readback_batch(0, ())
