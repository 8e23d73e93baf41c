"""FPGA device catalog.

A device part is described by a synthetic-but-exact tile geometry: a grid
of ``rows`` identical rows, each holding an ordered list of columns; each
column contributes resource tiles (CLB / BRAM / IOB) and configuration
frames.  The primary part reproduces the Xilinx Virtex-6 XC6VLX240T used
in the paper *exactly* in every quantity the protocol touches:

* 28,488 configuration frames of 81 × 32-bit words (Section 6.1);
* 18,840 CLBs, 832 × 18-kbit BRAMs, 1 ICAP, 12 DCMs (Table 2).

Scaled-down parts (``SIM_SMALL``, ``SIM_MEDIUM``) keep the same structure
so the full protocol, attacks and property tests run in milliseconds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.errors import FrameAddressError


class TileType(enum.Enum):
    """Resource tile classes of the configurable fabric (Figure 2)."""

    CLB = "CLB"
    BRAM = "BRAM"
    IOB = "IOB"
    CFG = "CFG"  # clock/config column: carries DCM sites and config logic


@dataclass(frozen=True)
class ColumnSpec:
    """One fabric column within a row: its tiles and its frame count."""

    tile_type: TileType
    tiles: int
    frames: int

    def __post_init__(self) -> None:
        if self.tiles < 0 or self.frames <= 0:
            raise ValueError(
                f"column must have frames > 0 and tiles >= 0, "
                f"got tiles={self.tiles} frames={self.frames}"
            )


@dataclass(frozen=True)
class DevicePart:
    """A configurable device: geometry plus fixed primitive counts."""

    name: str
    rows: int
    columns: Tuple[ColumnSpec, ...]
    words_per_frame: int
    dcm_count: int
    icap_count: int = 1
    bram_kbits: int = 18
    _column_frame_offsets: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _frames_per_row: int = field(init=False, repr=False, compare=False)
    _total_frames: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.rows <= 0:
            raise ValueError(f"device needs at least one row, got {self.rows}")
        if self.words_per_frame <= 0:
            raise ValueError(
                f"words_per_frame must be positive, got {self.words_per_frame}"
            )
        offsets: List[int] = []
        total = 0
        for column in self.columns:
            offsets.append(total)
            total += column.frames
        object.__setattr__(self, "_column_frame_offsets", tuple(offsets))
        # Geometry totals are immutable once the columns are fixed; cache
        # them — frame_coordinates() and the per-frame ICAP paths consult
        # them on every frame, and re-summing the column tuple dominated
        # profiles of full-device networked runs.
        object.__setattr__(self, "_frames_per_row", total)
        object.__setattr__(self, "_total_frames", self.rows * total)

    # -- frame geometry ----------------------------------------------------

    @property
    def frames_per_row(self) -> int:
        return self._frames_per_row

    @property
    def total_frames(self) -> int:
        return self._total_frames

    @property
    def frame_bytes(self) -> int:
        return self.words_per_frame * 4

    def configuration_bytes(self) -> int:
        """Size of the full configuration memory in bytes."""
        return self.total_frames * self.frame_bytes

    # -- resource totals -----------------------------------------------------

    def _tiles_of(self, tile_type: TileType) -> int:
        return self.rows * sum(
            column.tiles for column in self.columns if column.tile_type is tile_type
        )

    @property
    def clb_count(self) -> int:
        return self._tiles_of(TileType.CLB)

    @property
    def bram_count(self) -> int:
        return self._tiles_of(TileType.BRAM)

    @property
    def iob_count(self) -> int:
        return self._tiles_of(TileType.IOB)

    def bram_capacity_bytes(self) -> int:
        """Total embedded BRAM capacity — the bound in the bounded-memory
        model: a bitstream larger than this cannot be buffered on-chip."""
        return self.bram_count * self.bram_kbits * 1024 // 8

    def resource_totals(self) -> Dict[str, int]:
        return {
            "CLB": self.clb_count,
            "BRAM": self.bram_count,
            "IOB": self.iob_count,
            "ICAP": self.icap_count,
            "DCM": self.dcm_count,
        }

    # -- frame <-> (row, column, minor) addressing ---------------------------

    def column_of_frame(self, frame_index: int) -> ColumnSpec:
        """The column a linear frame index configures."""
        _, column_index, _ = self.frame_coordinates(frame_index)
        return self.columns[column_index]

    def frame_coordinates(self, frame_index: int) -> Tuple[int, int, int]:
        """Map a linear frame index to (row, column, minor)."""
        if not 0 <= frame_index < self.total_frames:
            raise FrameAddressError(
                f"frame {frame_index} out of range for {self.name} "
                f"(0..{self.total_frames - 1})"
            )
        row, within_row = divmod(frame_index, self.frames_per_row)
        # Binary search over column offsets.
        low, high = 0, len(self.columns) - 1
        offsets = self._column_frame_offsets
        while low < high:
            mid = (low + high + 1) // 2
            if offsets[mid] <= within_row:
                low = mid
            else:
                high = mid - 1
        return row, low, within_row - offsets[low]

    def frame_index(self, row: int, column: int, minor: int) -> int:
        """Map (row, column, minor) coordinates to a linear frame index."""
        if not 0 <= row < self.rows:
            raise FrameAddressError(f"row {row} out of range for {self.name}")
        if not 0 <= column < len(self.columns):
            raise FrameAddressError(f"column {column} out of range for {self.name}")
        spec = self.columns[column]
        if not 0 <= minor < spec.frames:
            raise FrameAddressError(
                f"minor {minor} out of range for column {column} "
                f"({spec.frames} frames)"
            )
        return row * self.frames_per_row + self._column_frame_offsets[column] + minor

    def column_frame_range(self, row: int, column: int) -> range:
        """All linear frame indices of one column in one row."""
        start = self.frame_index(row, column, 0)
        return range(start, start + self.columns[column].frames)


def _virtex6_columns() -> Tuple[ColumnSpec, ...]:
    """Column layout of the XC6VLX240T model.

    Per row: 157 CLB columns (15 CLBs, 18 frames each), 13 BRAM columns
    (8 BRAM18, 42 frames each — BRAM columns are frame-heavy because they
    carry block-RAM *content* frames), 2 IOB columns (30 IOBs, 18 frames
    each) and 1 config/clock column (153 frames).  Per row: 3,561 frames;
    with 8 rows this gives exactly 28,488 frames, 18,840 CLBs and 832
    BRAMs — and a 2,088-frame static region (94 CLB + 9 BRAM + 1 IOB
    columns) has capacity for the paper's 1,400-CLB / 72-BRAM StatPart.
    """
    clb = ColumnSpec(TileType.CLB, tiles=15, frames=18)
    bram = ColumnSpec(TileType.BRAM, tiles=8, frames=42)
    iob = ColumnSpec(TileType.IOB, tiles=30, frames=18)
    cfg = ColumnSpec(TileType.CFG, tiles=0, frames=153)

    columns: List[ColumnSpec] = [iob]
    for _group in range(13):
        columns.extend([clb] * 12)
        columns.append(bram)
    columns.append(clb)  # 13*12 + 1 = 157 CLB columns
    columns.append(cfg)
    columns.append(iob)
    return tuple(columns)


XC6VLX240T = DevicePart(
    name="XC6VLX240T",
    rows=8,
    columns=_virtex6_columns(),
    words_per_frame=81,
    dcm_count=12,
)

SIM_SMALL = DevicePart(
    name="SIM-SMALL",
    rows=2,
    columns=(
        ColumnSpec(TileType.IOB, tiles=2, frames=2),
        ColumnSpec(TileType.CLB, tiles=6, frames=3),
        ColumnSpec(TileType.CLB, tiles=6, frames=3),
        ColumnSpec(TileType.CLB, tiles=6, frames=3),
        ColumnSpec(TileType.CLB, tiles=6, frames=3),
        ColumnSpec(TileType.BRAM, tiles=2, frames=2),
        ColumnSpec(TileType.CFG, tiles=0, frames=1),
    ),
    words_per_frame=4,
    dcm_count=2,
)

SIM_MEDIUM = DevicePart(
    name="SIM-MEDIUM",
    rows=4,
    columns=(
        ColumnSpec(TileType.IOB, tiles=4, frames=4),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.BRAM, tiles=4, frames=6),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.BRAM, tiles=4, frames=6),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.CLB, tiles=8, frames=8),
        ColumnSpec(TileType.IOB, tiles=4, frames=4),
        ColumnSpec(TileType.CFG, tiles=0, frames=4),
    ),
    words_per_frame=8,
    dcm_count=4,
)

_CATALOG: Dict[str, DevicePart] = {
    part.name: part for part in (XC6VLX240T, SIM_SMALL, SIM_MEDIUM)
}


def get_part(name: str) -> DevicePart:
    """Look up a device part by name."""
    try:
        return _CATALOG[name]
    except KeyError:
        known = ", ".join(sorted(_CATALOG))
        raise FrameAddressError(f"unknown part {name!r}; known parts: {known}") from None


def catalog() -> Tuple[str, ...]:
    """Names of all known parts."""
    return tuple(sorted(_CATALOG))
