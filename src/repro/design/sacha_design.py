"""The SACHa system design (Figures 7 and 10) and the Table 2 report.

Assembles the static-partition design (ETH core, FSMs, BRAM command
buffer, FIFOs, AES-CMAC, ICAP controller, key store, clocking) and an
application design for the dynamic partition, places both into the SACHa
floorplan, and derives every quantity of Table 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.design.bitgen import Implementation, implement, nonce_frame_content
from repro.design.cores import (
    AES_CMAC_CORE,
    APP_BLINKER,
    CoreSpec,
    NONCE_REGISTER,
    PUF_CORE,
    STATIC_CORES,
)
from repro.design.netlist import Design, design_from_cores
from repro.errors import PlacementError
from repro.fpga.bitstream import Bitstream, build_partial_bitstream
from repro.fpga.config_memory import ConfigurationMemory
from repro.fpga.device import XC6VLX240T, DevicePart, TileType
from repro.fpga.fabric import Fabric, ResourceCount
from repro.fpga.mask import MaskFile
from repro.fpga.partitions import (
    PartitionMap,
    column_floorplan,
    sacha_virtex6_floorplan,
)
from repro.fpga.registers import RegisterBit


def build_static_design() -> Design:
    """The paper's StatPart netlist: 1,400 CLBs / 72 BRAMs total."""
    return design_from_cores("sacha_static", list(STATIC_CORES))


def scaled_static_design(device: DevicePart) -> Design:
    """A StatPart netlist scaled to a smaller device.

    Keeps every core of the block diagram but shrinks its budget
    proportionally to the device's CLB count, so the full protocol runs
    on the millisecond-scale test parts with the same structure.
    """
    if device.name == XC6VLX240T.name:
        return build_static_design()
    factor = device.clb_count / XC6VLX240T.clb_count
    bram_factor = device.bram_count / XC6VLX240T.bram_count
    bits_per_frame = device.words_per_frame * 32
    scaled: List[CoreSpec] = []
    for core in STATIC_CORES:
        scaled.append(
            CoreSpec(
                name=core.name,
                clb=max(1, round(core.clb * factor)),
                bram=round(core.bram * bram_factor),
                iob=min(core.iob and 1, device.iob_count),
                dcm=min(core.dcm, device.dcm_count),
                icap=core.icap,
                register_bits=max(2, min(core.register_bits // 16, bits_per_frame // 2)),
                clock_domain=core.clock_domain,
                description=f"scaled: {core.description}",
            )
        )
    return design_from_cores("sacha_static_scaled", scaled)


def default_floorplan(device: DevicePart) -> PartitionMap:
    """The SACHa floorplan for any catalogued device."""
    if device.name == XC6VLX240T.name:
        return sacha_virtex6_floorplan(device)
    clb_column_instances = device.rows * sum(
        1 for column in device.columns if column.tile_type is TileType.CLB
    )
    bram_column_instances = device.rows * sum(
        1 for column in device.columns if column.tile_type is TileType.BRAM
    )
    iob_column_instances = device.rows * sum(
        1 for column in device.columns if column.tile_type is TileType.IOB
    )
    # Static gets roughly a third of the CLB columns plus one BRAM and
    # one IOB column; everything else is dynamic.
    return column_floorplan(
        device,
        clb_columns=max(1, clb_column_instances // 3),
        bram_columns=min(1, bram_column_instances),
        iob_columns=min(1, iob_column_instances),
    )


@dataclass(frozen=True)
class SystemPlan:
    """The nonce-independent inputs of one SACHa system build.

    Everything here is a cheap, pure function of the device part and the
    requested application cores — no placement, no bit generation.  Two
    identical plans implement to byte-identical golden templates, masks
    and boot images.
    """

    device: DevicePart
    partition: PartitionMap
    static_design: Design
    app_design: Design
    nonce_bytes: int = 8


@dataclass
class SachaSystemDesign:
    """A complete SACHa configuration of one device."""

    device: DevicePart
    partition: PartitionMap
    static_impl: Implementation
    app_impl: Implementation
    nonce_bytes: int = 8
    #: Nonce-independent golden image (static + application applied, no
    #: nonce yet), built once — each golden_memory() call copies it and
    #: writes the nonce frames instead of replaying both implementations.
    _golden_template: Optional[ConfigurationMemory] = field(
        default=None, repr=False, compare=False
    )
    _combined_mask: Optional[MaskFile] = field(
        default=None, repr=False, compare=False
    )
    #: Cached static boot image: pure function of the static
    #: implementation, rebuilt for every provisioned board otherwise
    #: (``recommended_bootmem_bytes`` alone walks it once per device).
    _boot_image: Optional[bytes] = field(
        default=None, repr=False, compare=False
    )

    @property
    def static_design(self) -> Design:
        return self.static_impl.design

    @property
    def app_design(self) -> Design:
        return self.app_impl.design

    # -- configuration images ------------------------------------------------

    def golden_memory(self, nonce: bytes) -> ConfigurationMemory:
        """The intended full configuration for a given nonce."""
        if self._golden_template is None:
            template = ConfigurationMemory(self.device)
            self.static_impl.apply_to(template)
            self.app_impl.apply_to(template)
            self._golden_template = template
        memory = self._golden_template.copy()
        self.write_nonce(memory, nonce)
        return memory

    def write_nonce(self, memory: ConfigurationMemory, nonce: bytes) -> None:
        if len(nonce) != self.nonce_bytes:
            raise ValueError(
                f"nonce must be {self.nonce_bytes} bytes, got {len(nonce)}"
            )
        for frame_index in self.partition.nonce_frame_list():
            memory.write_frame(frame_index, nonce_frame_content(nonce, self.device))

    def combined_mask(self) -> MaskFile:
        """``Msk`` covering static + application storage elements.

        The union is computed once and cached — the implementations'
        register maps are fixed once placed, and callers treat the mask
        as read-only.
        """
        if self._combined_mask is None:
            self._combined_mask = self.static_impl.mask().union(
                self.app_impl.mask()
            )
        return self._combined_mask

    def first_unmasked_static_bit(self) -> RegisterBit:
        """The first static bit ``Msk`` does not hide: the tamper target.

        Scans static frames, then words, then bits, all ascending.  A
        masked bit belongs to a storage element and is excluded from the
        verifier's comparison, so flipping one is (correctly) accepted;
        a demonstration tamper must flip a bit the mask leaves visible.
        """
        mask = self.combined_mask()
        for frame_index in self.partition.static_frame_list():
            words = mask.frame_mask(frame_index)
            for word_index in range(len(words) // 4):
                word = int.from_bytes(words[4 * word_index : 4 * word_index + 4], "big")
                if word != 0xFFFFFFFF:
                    lowest_clear = (~word & (word + 1)).bit_length() - 1
                    return RegisterBit(frame_index, word_index, lowest_clear)
        raise PlacementError(f"{self.device.name}: every static bit is masked")

    # -- boot image -----------------------------------------------------------

    def static_bitstream(self) -> Bitstream:
        scratch = ConfigurationMemory(self.device)
        self.static_impl.apply_to(scratch)
        return build_partial_bitstream(
            scratch, self.partition.static_frame_list(), "sacha_static_boot"
        )

    def boot_image(self) -> bytes:
        if self._boot_image is None:
            self._boot_image = self.static_bitstream().to_bytes()
        return self._boot_image

    def freeze_artifacts(self) -> None:
        """Eagerly build every lazily-cached shared artifact.

        The artifact cache shares one system object across every device
        of a part; materializing the golden template, the combined mask
        (including its keep-bit complement) and the boot image *before*
        the object is shared keeps it strictly read-only afterwards and
        its resident size known up front.
        """
        self.golden_memory(bytes(self.nonce_bytes))
        self.combined_mask().freeze()
        self.boot_image()

    def recommended_bootmem_bytes(self) -> int:
        """BootMem sizing: fits the static image, not the partial bitstream.

        Section 5.2.1: the BootMem must not be able to store the DynPart
        bitstream, or it would undermine the bounded-memory assumption.
        """
        static_size = len(self.boot_image())
        dynamic_payload = self.partition.dynamic_bitstream_bytes()
        if static_size >= dynamic_payload:
            raise PlacementError(
                "static image is not smaller than the dynamic payload; "
                "the BootMem sizing rule cannot be satisfied"
            )
        margin = 4096
        return min(static_size + margin, dynamic_payload - 1)

    # -- Table 2 ---------------------------------------------------------------

    def table2_rows(self) -> List[Tuple[str, Dict[str, int]]]:
        """The rows of Table 2: entire FPGA, StatPart, MAC(+FIFO), DynPart."""
        device_total = ResourceCount(
            clb=self.device.clb_count,
            bram=self.device.bram_count,
            dcm=self.device.dcm_count,
            icap=self.device.icap_count,
        )
        stat = self.static_design.resources()
        mac = next(
            instance.core.resources()
            for instance in self.static_design
            if instance.core.name == AES_CMAC_CORE.name
        )
        dyn = device_total - stat
        return [
            ("Entire FPGA", _row(device_total)),
            ("StatPart", _row(stat)),
            ("MAC (+ FIFO)", _row(mac)),
            ("DynPart", _row(dyn)),
        ]

    def static_utilization(self) -> float:
        """StatPart share of the FPGA, the max over CLB and BRAM shares.

        The paper reports "less than 9 % ... considering both CLBs and
        BRAMs".
        """
        stat = self.static_design.resources()
        return max(
            stat.clb / self.device.clb_count,
            stat.bram / self.device.bram_count,
        )


def _row(resources: ResourceCount) -> Dict[str, int]:
    return {
        "CLB": resources.clb,
        "BRAM": resources.bram,
        "ICAP": resources.icap,
        "DCM": resources.dcm,
    }


def plan_sacha_system(
    device: DevicePart = XC6VLX240T,
    app_cores: Optional[Sequence[CoreSpec]] = None,
    include_dynamic_puf: bool = False,
    floorplan: Optional[PartitionMap] = None,
) -> SystemPlan:
    """The cheap, deterministic front half of :func:`build_sacha_system`.

    Resolves the floorplan and both netlists without placing or
    generating a single frame — milliseconds even on the full part.
    :func:`implement_plan` is the expensive back half.
    """
    partition = floorplan or default_floorplan(device)
    fabric = Fabric(device)
    static_design = (
        build_static_design()
        if device.name == XC6VLX240T.name
        else scaled_static_design(device)
    )
    cores = list(app_cores) if app_cores is not None else [APP_BLINKER]
    if include_dynamic_puf:
        cores.append(PUF_CORE)
    cores.append(NONCE_REGISTER)
    app_design = design_from_cores(
        "sacha_app", _fit_cores(cores, device, fabric, partition)
    )
    return SystemPlan(
        device=device,
        partition=partition,
        static_design=static_design,
        app_design=app_design,
    )


def implement_plan(plan: SystemPlan) -> SachaSystemDesign:
    """The expensive back half: place both designs and generate content."""
    static_impl = implement(
        plan.static_design, plan.device, plan.partition.static_frame_list()
    )
    app_impl = implement(
        plan.app_design, plan.device, plan.partition.application_frame_list()
    )
    return SachaSystemDesign(
        device=plan.device,
        partition=plan.partition,
        static_impl=static_impl,
        app_impl=app_impl,
        nonce_bytes=plan.nonce_bytes,
    )


def build_sacha_system(
    device: DevicePart = XC6VLX240T,
    app_cores: Optional[Sequence[CoreSpec]] = None,
    include_dynamic_puf: bool = False,
    floorplan: Optional[PartitionMap] = None,
) -> SachaSystemDesign:
    """Implement the full SACHa system on a device.

    ``app_cores`` is the intended application of the dynamic partition
    (default: the LED-blinker demo).  With ``include_dynamic_puf`` the
    verifier-supplied PUF core (key option 2 of Section 5.2.1) is added
    to the dynamic design.
    """
    return implement_plan(
        plan_sacha_system(
            device,
            app_cores=app_cores,
            include_dynamic_puf=include_dynamic_puf,
            floorplan=floorplan,
        )
    )


def _fit_cores(
    cores: Sequence[CoreSpec],
    device: DevicePart,
    fabric: Fabric,
    partition: PartitionMap,
) -> List[CoreSpec]:
    """Scale application cores down if the (test) device is too small."""
    capacity = fabric.capacity_of_frames(partition.application_frame_list())
    need_clb = sum(core.clb for core in cores)
    if need_clb <= capacity.clb:
        return list(cores)
    factor = capacity.clb / max(1, need_clb) / 2
    bits_per_frame = device.words_per_frame * 32
    return [
        CoreSpec(
            name=core.name,
            clb=max(1, int(core.clb * factor)),
            bram=0,
            iob=0,
            dcm=0,
            icap=0,
            register_bits=max(0, min(core.register_bits // 32, bits_per_frame // 4)),
            clock_domain=core.clock_domain,
            description=f"scaled: {core.description}",
        )
        for core in cores
    ]
