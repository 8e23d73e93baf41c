"""Bit generation: from a placed design to configuration content.

``bitgen`` turns a :class:`Placement` into

* deterministic frame content for every region frame (the configuration
  the design "synthesizes to") — any change to the netlist changes the
  content, which is what the verifier's golden comparison detects;
* the design's storage-element declarations for the live-register
  overlay;
* the matching ``Msk`` mask file;
* full/partial bitstreams via ``repro.fpga.bitstream``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from repro.crypto.sha256 import sha256
from repro.errors import ConfigMemoryError, FrameAddressError
from repro.design.netlist import Design
from repro.design.placer import Placement, place
from repro.fpga.bitstream import Bitstream, build_partial_bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import DevicePart
from repro.fpga.mask import MaskFile
from repro.fpga.registers import LiveRegisterFile, RegisterBit, register_rows


def _instance_content(
    instance_tag: bytes, frames: List[int], frame_bytes: int
) -> Dict[int, bytes]:
    """Deterministic configuration bytes for one instance's frames.

    Content is a pure function of the instance's netlist signature, so
    any design change changes the configuration — the property the golden
    comparison detects.  A counter-based generator (Philox) keyed by the
    signature hash produces the bulk data quickly.
    """
    if not frames:
        return {}
    seed = int.from_bytes(sha256(instance_tag)[:16], "big")
    generator = np.random.Generator(np.random.Philox(key=seed))
    data = generator.integers(
        0, 256, size=(len(frames), frame_bytes), dtype=np.uint8
    )
    return {
        frame_index: data[position].tobytes()
        for position, frame_index in enumerate(frames)
    }


@dataclass
class Implementation:
    """A fully implemented design: placement plus generated configuration."""

    design: Design
    device: DevicePart
    placement: Placement
    frame_content: Dict[int, bytes]

    @property
    def region_frames(self) -> List[int]:
        return self.placement.region_frames

    @cached_property
    def _register_bits(self) -> Tuple[RegisterBit, ...]:
        """The sorted storage-element positions, sorted once: every
        attestation re-declares the application's registers, and the
        placement is fixed once implemented."""
        return tuple(self.placement.all_register_positions())

    @cached_property
    def _register_rows(self) -> np.ndarray:
        rows = register_rows(self._register_bits)
        rows.flags.writeable = False
        return rows

    def register_positions(self) -> List[RegisterBit]:
        return list(self._register_bits)

    def apply_to(self, memory: ConfigurationMemory) -> None:
        """Write the implementation's frames into a configuration memory.

        All frames land in one fancy-indexed store — the golden-memory
        rebuild inside every verifier evaluation walks this path, so a
        per-frame ``write_frame`` loop would tax each attestation run.
        """
        if not self.frame_content:
            return
        count = len(self.frame_content)
        indices = np.fromiter(
            self.frame_content.keys(), dtype=np.intp, count=count
        )
        if int(indices.min()) < 0 or int(indices.max()) >= memory.total_frames:
            raise FrameAddressError(
                f"frame index out of range for {memory.device.name}"
            )
        data = b"".join(self.frame_content.values())
        words = memory.device.words_per_frame
        if len(data) != count * memory.frame_bytes:
            raise ConfigMemoryError(
                f"{len(data)} bytes do not hold {count} frames of "
                f"{memory.frame_bytes} bytes"
            )
        memory.frames_array()[indices] = np.frombuffer(data, dtype=">u4").reshape(
            count, words
        )

    def declare_registers(self, registers: LiveRegisterFile) -> None:
        """Declare the design's storage elements on a live register file."""
        registers.declare(self._register_rows)

    def mask(self) -> MaskFile:
        """The ``Msk`` covering exactly this design's storage elements."""
        mask = MaskFile(self.device)
        mask.set_positions(self.register_positions())
        return mask

    def partial_bitstream(self, design_name: str = "") -> Bitstream:
        """Partial bitstream configuring exactly the region frames."""
        scratch = ConfigurationMemory(self.device)
        self.apply_to(scratch)
        return build_partial_bitstream(
            scratch, self.region_frames, design_name or self.design.name
        )

    def bitstream_bytes(self) -> int:
        """Raw configuration payload size (frames x frame size)."""
        return len(self.region_frames) * self.device.frame_bytes


def implement(
    design: Design, device: DevicePart, region_frames
) -> Implementation:
    """Place a design and generate its configuration content.

    Every frame of the region receives content: frames assigned to an
    instance get design-derived bits; unassigned frames get the default
    (all-zero) fabric configuration — exactly like unused fabric in a
    real partial bitstream, which is still part of the payload.
    """
    placement = place(design, device, region_frames)
    signature = design.content_signature()
    frame_content: Dict[int, bytes] = {}
    for instance_name, frames in placement.frame_assignment.items():
        instance_tag = signature + b"/" + instance_name.encode("utf-8")
        frame_content.update(
            _instance_content(instance_tag, frames, device.frame_bytes)
        )
    for frame_index in placement.unused_region_frames():
        frame_content[frame_index] = bytes(device.frame_bytes)
    return Implementation(
        design=design,
        device=device,
        placement=placement,
        frame_content=frame_content,
    )


def nonce_frame_content(nonce: bytes, device: DevicePart) -> bytes:
    """The configuration content of the nonce frame.

    The 64-bit nonce lands in the first words of the nonce frame; the
    rest of the frame is the default configuration of the nonce-register
    partition.
    """
    if len(nonce) > device.frame_bytes:
        raise ValueError(
            f"nonce of {len(nonce)} bytes exceeds a frame "
            f"({device.frame_bytes} bytes)"
        )
    return nonce + bytes(device.frame_bytes - len(nonce))
