"""JTAG configuration port — the paper's timing reference.

Section 7.1 notes that a direct configuration of the XC6VLX240T over a
JTAG cable takes around 28 s, which is the yardstick against which the
measured 28.5 s SACHa run is judged "very reasonable".  The model clocks
the bitstream through TCK one bit at a time with a protocol-efficiency
factor (state-machine traversal, IR/DR overhead, USB cable batching).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.units import NS_PER_S


@dataclass(frozen=True)
class JtagPort:
    """A JTAG configuration interface.

    Defaults calibrated to the paper's reference point: a ~9.2 MB full
    bitstream at 6 MHz TCK with 44 % efficiency loads in ≈28 s.
    """

    tck_hz: float = 6_000_000.0
    efficiency: float = 0.44

    def __post_init__(self) -> None:
        if self.tck_hz <= 0:
            raise ValueError(f"TCK must be positive, got {self.tck_hz}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"efficiency must be in (0, 1], got {self.efficiency}")

    def effective_bits_per_second(self) -> float:
        return self.tck_hz * self.efficiency

    def configuration_time_ns(self, bitstream_bytes: int) -> float:
        """Time to shift a bitstream of the given size into the device."""
        if bitstream_bytes < 0:
            raise ValueError(f"negative bitstream size {bitstream_bytes}")
        bits = bitstream_bytes * 8
        return bits / self.effective_bits_per_second() * NS_PER_S
