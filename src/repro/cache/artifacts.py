"""The cached unit: one part's implemented, frozen SACHa system.

Building a part's system — placement, register-bit derivation, Philox
frame content, golden template, combined ``Msk``, boot image — is a pure
function of the part name.  :func:`build_system` runs it once and freezes
every lazily-built artifact, so the one system object can be shared
read-only by every device of that part.  Per-device mutable state
(board, PUF, live registers, prover) is explicitly *not* part of it.
"""

from __future__ import annotations

from repro.design.sacha_design import (
    SachaSystemDesign,
    implement_plan,
    plan_sacha_system,
)
from repro.fpga.device import get_part


def build_system(part: str) -> SachaSystemDesign:
    """The cold path: plan and implement the part's system, then freeze it."""
    system = implement_plan(plan_sacha_system(get_part(part)))
    system.freeze_artifacts()
    return system


def resident_bytes(system: SachaSystemDesign) -> int:
    """Approximate resident size, for the ``sacha_cache_bytes`` gauge."""
    total = len(system.boot_image())
    template = system._golden_template
    if template is not None:
        total += template.frames_array().nbytes
    mask = system._combined_mask
    if mask is not None:
        total += 2 * mask.bits_array().nbytes  # bits + frozen keep bits
    for impl in (system.static_impl, system.app_impl):
        total += len(impl.frame_content) * system.device.frame_bytes
    return total
