"""The SACHa verifier.

The verifier owns every decision in the protocol: which frames to
configure (the intended application plus a fresh nonce), the readback
order, and the final two-part verdict — the MAC comparison and the
masked golden-configuration comparison (Figure 9, right-hand side).
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.crypto.cmac import AesCmac
from repro.design.sacha_design import SachaSystemDesign
from repro.errors import VerificationError
from repro.core.orders import ReadbackOrder, default_order
from repro.core.report import AttestationReport
from repro.net.messages import IcapConfigCommand, IcapReadbackMaskedCommand
from repro.obs import log as obs_log
from repro.obs.metrics import get_registry
from repro.utils.rng import DeterministicRng
from repro.utils.secret import SecretBytes

_log = obs_log.get_logger(__name__)


def _observe_verdict(report: AttestationReport) -> None:
    """Count the evaluation and log a rejection's reason."""
    registry = get_registry()
    if not registry.enabled:
        return
    verdict = report.verdict.value
    registry.counter(
        "sacha_verifier_evaluations_total",
        "Verifier verdicts, by outcome",
        labels=("verdict",),
    ).inc(verdict=verdict)
    if report.mismatched_frames:
        registry.counter(
            "sacha_frames_mismatched_total",
            "Readback frames that differed from the masked golden reference",
        ).inc(len(report.mismatched_frames))
    if not report.accepted:
        reason = report.failure_reason
        if not reason:
            parts = []
            if not report.mac_valid:
                parts.append("MAC invalid")
            if not report.config_match:
                parts.append(
                    f"{len(report.mismatched_frames)} frame(s) mismatched"
                )
            reason = "; ".join(parts)
        _log.warning(
            "attestation_rejected",
            mac_valid=report.mac_valid,
            config_match=report.config_match,
            mismatched_frames=len(report.mismatched_frames),
            reason=reason,
        )


@dataclass(frozen=True)
class VerifierPolicy:
    """Checks the verifier enforces beyond the two comparisons."""

    require_full_coverage: bool = True
    max_readback_steps: Optional[int] = None

    def validate_order(self, sequence: Sequence[int], total_frames: int) -> None:
        if self.max_readback_steps is not None and len(sequence) > self.max_readback_steps:
            raise VerificationError(
                f"readback plan of {len(sequence)} steps exceeds the "
                f"policy limit {self.max_readback_steps}"
            )


class SachaVerifier:
    """One verifier instance bound to one enrolled prover device."""

    def __init__(
        self,
        system: SachaSystemDesign,
        key: Union[bytes, SecretBytes],
        rng: DeterministicRng,
        order: Optional[ReadbackOrder] = None,
        policy: Optional[VerifierPolicy] = None,
        attest_live_state: bool = False,
    ) -> None:
        key_bytes = key.reveal() if isinstance(key, SecretBytes) else bytes(key)
        if len(key_bytes) != 16:
            raise VerificationError(
                f"MAC key must be 16 bytes, got {len(key_bytes)}"
            )
        self.system = system
        self._key = key_bytes
        self._rng = rng
        self._order = order or default_order(rng.fork("readback-order"))
        self._policy = policy if policy is not None else VerifierPolicy()
        #: Future-work mode (Section 8): attest the live register state
        #: too — no mask is applied, and the verifier must know the
        #: expected register values.
        self.attest_live_state = attest_live_state

    @property
    def device_total_frames(self) -> int:
        return self.system.device.total_frames

    # -- challenge construction -------------------------------------------------

    def new_nonce(self) -> bytes:
        """A fresh nonce for the dynamic configuration step."""
        return self._rng.randbytes(self.system.nonce_bytes)

    def config_commands(self, nonce: bytes) -> List[IcapConfigCommand]:
        """The dynamic-configuration phase of Figure 9.

        First the intended application (frame m .. frame n), then the
        nonce — two separate configuration steps, covering the *entire*
        DynMem.
        """
        indices, rows = self._config_frames(nonce)
        return list(map(IcapConfigCommand, indices, rows))

    def config_schedule(self, nonce: bytes) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`config_commands` as arrays: (frame indices, frame rows).

        One ``(frame_bytes,)`` uint8 row of content per index, in the
        same order — what the pipelined transport packs into batches
        without a message object per frame.
        """
        indices, rows = self._config_frames(nonce)
        frames = np.frombuffer(b"".join(rows), dtype=np.uint8)
        return (
            np.asarray(indices, dtype=np.int64),
            frames.reshape(len(indices), self.system.device.frame_bytes),
        )

    def _config_frames(self, nonce: bytes) -> Tuple[List[int], List[bytes]]:
        """Frame indices and contents of the configuration, in order."""
        from repro.design.bitgen import nonce_frame_content

        app_impl = self.system.app_impl
        app_frames = app_impl.region_frames
        nonce_frames = self.system.partition.nonce_frame_list()
        rows = [app_impl.frame_content[frame_index] for frame_index in app_frames]
        rows += [nonce_frame_content(nonce, self.system.device)] * len(nonce_frames)
        return app_frames + nonce_frames, rows

    def readback_plan(self) -> List[int]:
        """The frame sequence for the full-configuration readback."""
        sequence = (
            self._order.validate(self.device_total_frames)
            if self._policy.require_full_coverage
            else self._order.frame_sequence(self.device_total_frames)
        )
        self._policy.validate_order(sequence, self.device_total_frames)
        return sequence

    # -- verdict -------------------------------------------------------------------

    def _check_authenticity(self, sweep: bytes, tag: bytes) -> bool:
        """H_Prv == H_Vrf, where H_Vrf is the MAC over ``sweep`` as
        received.  Subclasses may substitute another mechanism (e.g. the
        Section-8 signature extension)."""
        expected = AesCmac(self._key).update_frames((sweep,)).finalize()
        return hmac.compare_digest(expected, tag)

    # -- masked-readback variant (Section 6.1 alternative) --------------------

    def masked_readback_commands(
        self, plan: Sequence[int]
    ) -> List[IcapReadbackMaskedCommand]:
        """The ``ICAP_readback(frame, Msk)`` commands of the variant."""
        mask = self.system.combined_mask()
        return [
            IcapReadbackMaskedCommand(
                frame_index=frame_index, mask=mask.frame_mask(frame_index)
            )
            for frame_index in plan
        ]

    def expected_masked_mac(self, nonce: bytes, plan: Sequence[int]) -> bytes:
        """MAC over the *masked golden* configuration in plan order."""
        indices = np.asarray(plan, dtype=np.intp)
        golden = self.system.golden_memory(nonce).frames_array()[indices]
        masked = self.system.combined_mask().apply_to_sweep(golden, indices)
        return AesCmac(self._key).update(masked.astype(">u4").tobytes()).finalize()

    def evaluate_masked(
        self, nonce: bytes, plan: Sequence[int], tag: bytes
    ) -> AttestationReport:
        """The variant's verdict: one comparison carries both checks.

        Because the prover masks before MACing, a matching tag proves
        both origin *and* configuration correctness — but a mismatch can
        no longer be localized to frames (nothing was sent back), the
        variant's trade-off.
        """
        report = AttestationReport(
            mac_valid=False,
            config_match=False,
            nonce=nonce,
            readback_steps=len(plan),
        )
        matched = hmac.compare_digest(self.expected_masked_mac(nonce, plan), tag)
        report.mac_valid = matched
        report.config_match = matched
        if not matched:
            report.failure_reason = (
                "masked-readback MAC mismatch (no frame localization "
                "available in this variant)"
            )
        _observe_verdict(report)
        return report

    def evaluate(
        self,
        nonce: bytes,
        plan: Sequence[int],
        sweep: bytes,
        tag: bytes,
    ) -> AttestationReport:
        """The two comparisons of Figure 9 over one read-back sweep.

        ``sweep`` is the configuration as received: the ``frame_bytes``
        of each frame of ``plan``, concatenated in plan order.  A sweep
        of any other length is not accepted and the report says why.
        """
        frame_bytes = self.system.device.frame_bytes
        report = AttestationReport(
            mac_valid=False,
            config_match=False,
            nonce=nonce,
            readback_steps=len(sweep) // frame_bytes,
        )
        if len(sweep) != len(plan) * frame_bytes:
            report.failure_reason = (
                f"expected {len(plan)} read-back frames of {frame_bytes} "
                f"bytes, got {len(sweep)} bytes"
            )
            _observe_verdict(report)
            return report

        # Check 1: H_Prv == H_Vrf over the received data.
        report.mac_valid = self._check_authenticity(sweep, tag)

        # Check 2: masked received configuration == masked golden, one
        # row per plan slot.  In live-state mode (Section 8 future work)
        # the received data stays unmasked — the register state is
        # attested too — and the golden side carries the *expected* state
        # (reset values, i.e. masked positions cleared).  A running
        # application whose registers have drifted from the expected
        # state therefore fails, which is why the extension needs
        # expected-state tracking.
        mask = self.system.combined_mask()
        indices = np.asarray(plan, dtype=np.intp)
        golden = self.system.golden_memory(nonce).frames_array()[indices]
        received = np.frombuffer(sweep, dtype=">u4").reshape(golden.shape)
        if self.attest_live_state:
            differs = mask.apply_to_sweep(golden, indices) ^ received
        else:
            differs = mask.apply_to_sweep(golden ^ received, indices)
        rows = np.flatnonzero(differs.any(axis=1))
        report.mismatched_frames = np.unique(indices[rows]).tolist()
        report.config_match = not report.mismatched_frames
        _observe_verdict(report)
        return report
