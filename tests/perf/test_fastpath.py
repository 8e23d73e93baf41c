"""Zero-copy frame fast paths are byte-identical to the scalar paths."""

import numpy as np
import pytest

from repro.core.protocol import SessionOptions, run_attestation
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_SMALL
from repro.fpga.icap import Icap
from repro.fpga.mask import MaskFile
from repro.fpga.registers import LiveRegisterFile, RegisterBit
from repro.perf import configured
from repro.utils.rng import DeterministicRng


@pytest.fixture
def memory():
    memory = ConfigurationMemory(SIM_SMALL)
    memory.randomize(DeterministicRng(41))
    return memory


@pytest.fixture
def registers(memory):
    registers = LiveRegisterFile(SIM_SMALL)
    registers.declare(
        [
            RegisterBit(2, 0, 3),
            RegisterBit(2, 1, 17),
            RegisterBit(5, 2, 30),
        ],
        initial=1,
    )
    return registers


class TestBulkReadback:
    def test_read_frames_equals_frame_loop(self, memory):
        bulk = memory.read_frames(1, 4)
        assert bulk == b"".join(memory.read_frame(i) for i in range(1, 5))

    def test_readback_range_equals_frame_loop(self, memory, registers):
        reference = Icap(memory.copy(), registers)
        icap = Icap(memory, registers)
        total = SIM_SMALL.total_frames
        # Registers live in frames 2 and 5: whole sweeps, ranges that
        # start and end inside register-bearing frames, single frames,
        # and a range between them.
        for start, count in ((0, total), (2, 4), (2, 1), (5, 1), (3, 2), (5, total - 5)):
            expected = b"".join(
                reference.readback_frame(i) for i in range(start, start + count)
            )
            assert icap.readback_range(start, count) == expected, (start, count)

    def test_iterator_matches_readback_all(self, memory, registers):
        icap = Icap(memory, registers)
        frames = [bytes(frame) for frame in icap.iter_readback()]
        assert frames == Icap(memory.copy(), registers).readback_all()

    def test_range_keeps_transaction_accounting(self, memory, registers):
        per_frame = Icap(memory.copy(), registers)
        for index in range(SIM_SMALL.total_frames):
            per_frame.readback_frame(index)
        bulk = Icap(memory, registers)
        bulk.readback_range(0, SIM_SMALL.total_frames)
        assert bulk.stats.frames_read == per_frame.stats.frames_read
        assert bulk.stats.words_read == per_frame.stats.words_read


class TestMaskSweep:
    def test_apply_to_sweep_equals_per_frame(self, memory):
        mask = MaskFile(SIM_SMALL)
        mask.set_positions(
            [RegisterBit(0, 0, 1), RegisterBit(3, 2, 9), RegisterBit(3, 3, 31)]
        )
        indices = [3, 0, 3, 1]
        sweep = np.frombuffer(
            b"".join(memory.read_frame(i) for i in indices), dtype=">u4"
        ).reshape(len(indices), SIM_SMALL.words_per_frame)
        masked = mask.apply_to_sweep(sweep, indices)
        for row, frame_index in enumerate(indices):
            assert (
                masked[row].astype(">u4").tobytes()
                == mask.apply_to_frame(frame_index, memory.read_frame(frame_index))
            )


class TestEvaluateEquivalence:
    @pytest.mark.parametrize("tamper", [False, True])
    def test_vectorized_verdict_matches_scalar(self, tamper):
        reports = {}
        for fastpath in (True, False):
            with configured(frame_fastpath=fastpath, aes_backend="reference"):
                system = build_sacha_system(SIM_SMALL)
                provisioned, record = provision_device(
                    system, "fastpath-eq", seed=606
                )
                if tamper:
                    frame = system.partition.static_frame_list()[0]
                    provisioned.board.fpga.memory.flip_bit(frame, 0, 0)
                verifier = SachaVerifier(
                    record.system, record.mac_key, DeterministicRng(607)
                )
                result = run_attestation(
                    provisioned.prover,
                    verifier,
                    DeterministicRng(608),
                    SessionOptions(),
                )
                reports[fastpath] = result.report
        fast, scalar = reports[True], reports[False]
        assert fast.accepted == scalar.accepted == (not tamper)
        assert fast.mac_valid == scalar.mac_valid
        assert fast.mismatched_frames == scalar.mismatched_frames
