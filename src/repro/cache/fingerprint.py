"""Deterministic content addresses for built system artifacts.

A SACHa system build is a pure function of its :class:`SystemPlan` —
the device geometry, both netlists, the floorplan and the nonce width.
Everything the build produces (golden template, combined mask, boot
image, register maps) is nonce- and key-independent, so a canonical
SHA-256 over the plan is a sound content address: equal fingerprints
imply byte-identical artifacts, and *any* change to the part catalog,
a core spec or the placer's region lists changes the address and
forces a rebuild instead of serving stale state.

The canonical-JSON preimage keeps fingerprints reproducible across
processes and machines.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

from repro.design.netlist import Design
from repro.design.sacha_design import SystemPlan
from repro.fpga.device import DevicePart

def _device_facts(device: DevicePart) -> Dict[str, object]:
    """Every geometric quantity the build reads from the part."""
    return {
        "name": device.name,
        "rows": device.rows,
        "columns": [
            [column.tile_type.value, column.tiles, column.frames]
            for column in device.columns
        ],
        "words_per_frame": device.words_per_frame,
        "dcm_count": device.dcm_count,
        "icap_count": device.icap_count,
        "bram_kbits": device.bram_kbits,
    }


def _design_facts(design: Design) -> str:
    """The netlist version: the same signature bitgen derives content from."""
    return design.content_signature().decode("utf-8", errors="surrogateescape")


def _region_facts(plan: SystemPlan) -> Dict[str, List[int]]:
    partition = plan.partition
    return {
        "static": partition.static_frame_list(),
        "application": partition.application_frame_list(),
        "nonce": partition.nonce_frame_list(),
    }


def plan_fingerprint(plan: SystemPlan) -> str:
    """The canonical SHA-256 content address of one system plan."""
    preimage = {
        "device": _device_facts(plan.device),
        "static_design": _design_facts(plan.static_design),
        "app_design": _design_facts(plan.app_design),
        "regions": _region_facts(plan),
        "nonce_bytes": plan.nonce_bytes,
    }
    canonical = json.dumps(
        preimage, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

