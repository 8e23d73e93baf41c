"""Unit tests for bit generation and the assembled SACHa system design."""

import pytest

from repro.design.bitgen import implement, nonce_frame_content
from repro.design.cores import APP_AES_ACCELERATOR, APP_BLINKER
from repro.design.netlist import design_from_cores
from repro.design.sacha_design import (
    build_sacha_system,
    build_static_design,
    default_floorplan,
    scaled_static_design,
)
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL, XC6VLX240T
from repro.fpga.registers import LiveRegisterFile, RegisterBit


class TestImplement:
    @pytest.fixture
    def impl(self):
        plan = default_floorplan(SIM_MEDIUM)
        return implement(
            scaled_static_design(SIM_MEDIUM), SIM_MEDIUM, plan.static_frame_list()
        )

    def test_every_region_frame_has_content(self, impl):
        assert set(impl.frame_content) == set(impl.region_frames)

    def test_content_is_deterministic(self):
        plan = default_floorplan(SIM_MEDIUM)
        a = implement(
            scaled_static_design(SIM_MEDIUM), SIM_MEDIUM, plan.static_frame_list()
        )
        b = implement(
            scaled_static_design(SIM_MEDIUM), SIM_MEDIUM, plan.static_frame_list()
        )
        assert a.frame_content == b.frame_content

    def test_different_designs_different_content(self):
        plan = default_floorplan(SIM_MEDIUM)
        frames = plan.application_frame_list()
        a = implement(design_from_cores("a", [APP_BLINKER]), SIM_MEDIUM, frames)
        b = implement(
            design_from_cores("b", [APP_BLINKER]), SIM_MEDIUM, frames
        )
        assert a.frame_content != b.frame_content

    def test_apply_to_memory(self, impl):
        memory = ConfigurationMemory(SIM_MEDIUM)
        impl.apply_to(memory)
        for frame_index in impl.region_frames:
            assert memory.read_frame(frame_index) == impl.frame_content[frame_index]

    def test_declare_registers(self, impl):
        registers = LiveRegisterFile(SIM_MEDIUM)
        impl.declare_registers(registers)
        assert len(registers) == len(impl.register_positions())

    def test_mask_covers_exactly_registers(self, impl):
        mask = impl.mask()
        assert mask.masked_bit_count() == len(impl.register_positions())
        for bit in impl.register_positions():
            assert mask.is_masked(bit)

    def test_partial_bitstream_covers_region(self, impl):
        from repro.fpga.bitstream import BitstreamLoader
        from repro.fpga.icap import Icap

        bitstream = impl.partial_bitstream()
        icap = Icap(ConfigurationMemory(SIM_MEDIUM))
        report = BitstreamLoader(icap).load(bitstream)
        assert sorted(report.frames_written) == impl.region_frames


class TestNonceFrame:
    def test_nonce_embedded_at_start(self):
        content = nonce_frame_content(b"\x01\x02\x03\x04\x05\x06\x07\x08", SIM_SMALL)
        assert content[:8] == bytes(range(1, 9))
        assert len(content) == SIM_SMALL.frame_bytes

    def test_oversized_nonce_rejected(self):
        with pytest.raises(ValueError):
            nonce_frame_content(bytes(SIM_SMALL.frame_bytes + 1), SIM_SMALL)


class TestSachaSystem:
    def test_table2_is_exact_on_the_real_part(self):
        system = build_sacha_system(XC6VLX240T)
        rows = dict(system.table2_rows())
        assert rows["Entire FPGA"] == {"CLB": 18_840, "BRAM": 832, "ICAP": 1, "DCM": 12}
        assert rows["StatPart"] == {"CLB": 1_400, "BRAM": 72, "ICAP": 1, "DCM": 1}
        assert rows["MAC (+ FIFO)"] == {"CLB": 283, "BRAM": 8, "ICAP": 0, "DCM": 0}
        assert rows["DynPart"] == {"CLB": 17_440, "BRAM": 760, "ICAP": 0, "DCM": 11}

    def test_utilization_below_9_percent(self):
        system = build_sacha_system(XC6VLX240T)
        assert system.static_utilization() < 0.09

    def test_rows_are_additive(self):
        """StatPart + DynPart = Entire FPGA (the paper's convention)."""
        system = build_sacha_system(XC6VLX240T)
        rows = dict(system.table2_rows())
        for resource in ("CLB", "BRAM", "ICAP", "DCM"):
            assert rows["StatPart"][resource] + rows["DynPart"][resource] == (
                rows["Entire FPGA"][resource]
            )

    def test_golden_memory_covers_whole_device(self, rng):
        system = build_sacha_system(SIM_SMALL)
        golden = system.golden_memory(rng.randbytes(8))
        assert len(golden.snapshot()) == SIM_SMALL.configuration_bytes()

    def test_golden_memory_reflects_nonce(self):
        system = build_sacha_system(SIM_SMALL)
        a = system.golden_memory(b"\x01" * 8)
        b = system.golden_memory(b"\x02" * 8)
        differing = a.differing_frames(b)
        assert differing == system.partition.nonce_frame_list()

    @pytest.mark.parametrize(
        "part, expected",
        # SIM-SMALL keeps the historical (frame, 0, 0) target, so fleet
        # pins do not move; SIM-MEDIUM masks bit 0 and moves to bit 1.
        [(SIM_SMALL, RegisterBit(0, 0, 0)), (SIM_MEDIUM, RegisterBit(0, 0, 1))],
    )
    def test_first_unmasked_static_bit(self, part, expected):
        """The tamper target is the first static bit, in frame/word/bit
        order, that the combined mask leaves visible."""
        system = build_sacha_system(part)
        mask = system.combined_mask()
        bit = system.first_unmasked_static_bit()
        assert bit == expected
        assert bit.frame_index == system.partition.static_frame_list()[0]
        assert not mask.is_masked(bit)
        for word_index in range(bit.word_index + 1):
            last = bit.bit_index if word_index == bit.word_index else 32
            for bit_index in range(last):
                assert mask.is_masked(
                    RegisterBit(bit.frame_index, word_index, bit_index)
                )

    def test_wrong_nonce_size_rejected(self):
        system = build_sacha_system(SIM_SMALL)
        with pytest.raises(ValueError):
            system.golden_memory(b"\x01")

    def test_bootmem_rule(self):
        system = build_sacha_system(SIM_MEDIUM)
        assert len(system.boot_image()) <= system.recommended_bootmem_bytes()
        assert (
            system.recommended_bootmem_bytes()
            < system.partition.dynamic_bitstream_bytes()
        )

    def test_custom_application(self):
        system = build_sacha_system(SIM_MEDIUM, app_cores=[APP_AES_ACCELERATOR])
        names = {instance.core.name for instance in system.app_design}
        assert "app_aes_accel" in names
        assert "nonce_register" in names

    def test_dynamic_puf_option(self):
        system = build_sacha_system(SIM_MEDIUM, include_dynamic_puf=True)
        names = {instance.core.name for instance in system.app_design}
        assert "puf_core" in names

    def test_static_design_on_real_part_is_unscaled(self):
        assert build_static_design().resources().clb == 1_400
        scaled = scaled_static_design(SIM_SMALL)
        assert scaled.resources().clb < 1_400
