"""BootMem: the non-volatile boot flash of the prover board.

Properties the system model (Section 3) relies on:

* programmed before deployment, then *read-only* — on commercial boards
  reprogramming requires physically decoupling the chip, so the remote
  adversary cannot write it;
* deliberately sized so it can hold the static bitstream but **not** the
  partial bitstream of the dynamic partition (Section 5.2.1) — otherwise
  it would be a hiding place that breaks the bounded-memory argument.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import FlashError


class BootMem:
    """A small NOR-flash model with an offline-only programming port."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise FlashError(f"flash capacity must be positive, got {capacity_bytes}")
        self._capacity = capacity_bytes
        self._image: Optional[bytes] = None
        self._deployed = False
        self.program_cycles = 0

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    @property
    def is_programmed(self) -> bool:
        return self._image is not None

    def program(self, image: bytes) -> None:
        """Write the boot image; only possible before deployment."""
        if self._deployed:
            raise FlashError(
                "BootMem is deployed: programming requires physical access "
                "(decoupling the chip from the board)"
            )
        if len(image) > self._capacity:
            raise FlashError(
                f"image of {len(image)} bytes exceeds flash capacity "
                f"{self._capacity}"
            )
        self._image = bytes(image)
        self.program_cycles += 1

    def deploy(self) -> None:
        """Mark the board as fielded; the flash becomes read-only."""
        if self._image is None:
            raise FlashError("cannot deploy an unprogrammed BootMem")
        self._deployed = True

    def read(self) -> bytes:
        if self._image is None:
            raise FlashError("BootMem is not programmed")
        return self._image

    def can_store(self, size_bytes: int) -> bool:
        """Capacity check used by the bounded-memory invariants."""
        return size_bytes <= self._capacity
