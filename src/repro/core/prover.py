"""The SACHa prover: the protocol engine of the static partition.

This is the software model of what the StatPart hardware does (Figure
10): receive commands from the ETH core, drive the ICAP, stream readback
frames through the AES-CMAC core, and send responses.  It holds *no*
protocol intelligence beyond that — all sequencing decisions belong to
the verifier, exactly as in the paper.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.crypto.cmac import AesCmac
from repro.errors import ProtocolError
from repro.fpga.board import Board
from repro.fpga.puf import PufKeySlot, SramPuf
from repro.net.batch import contiguous_runs, fragment_readback_data
from repro.net.ethernet import MAX_PAYLOAD
from repro.net.messages import (
    Command,
    IcapConfigBatchCommand,
    IcapConfigCommand,
    IcapReadbackBatchCommand,
    IcapReadbackCommand,
    IcapReadbackMaskedCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    MaskedReadbackAck,
    ReadbackResponse,
    Response,
)
from repro.obs.metrics import get_registry
from repro.utils.rng import DeterministicRng


class KeyProvider(abc.ABC):
    """Where the prover's MAC key comes from (Section 5.2.1)."""

    @abc.abstractmethod
    def mac_key(self) -> bytes:
        """The 128-bit AES-CMAC key."""


class RegisterKey(KeyProvider):
    """Proof-of-concept option: a key register in the StatPart."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ProtocolError(f"MAC key must be 16 bytes, got {len(key)}")
        self._key = bytes(key)

    def mac_key(self) -> bytes:
        return self._key


class PufDerivedKey(KeyProvider):
    """Foolproof option: re-derive the key from the on-chip PUF.

    The key never exists outside the device; each derivation re-runs the
    fuzzy extractor on a fresh noisy PUF read.
    """

    def __init__(self, puf: SramPuf, slot: PufKeySlot, rng: DeterministicRng) -> None:
        self._puf = puf
        self._slot = slot
        self._rng = rng

    def mac_key(self) -> bytes:
        return self._slot.derive_key(self._puf, self._rng)


class ChecksumEngine(abc.ABC):
    """One attestation run's incremental checksum (MAC or signature)."""

    @abc.abstractmethod
    def update(self, data: bytes) -> None:
        """Fold one readback frame into the checksum (action A6)."""

    @abc.abstractmethod
    def finalize(self) -> bytes:
        """Produce the transcript authenticator (action A7/A10)."""


class CmacEngine(ChecksumEngine):
    """The paper's checksum: AES-CMAC under the shared key."""

    def __init__(self, key: bytes) -> None:
        self._mac = AesCmac(key)

    def update(self, data: bytes) -> None:
        self._mac.update(data)

    def finalize(self) -> bytes:
        return self._mac.finalize()


class SachaProver:
    """Command handler bound to one board.

    The prover is *stateless between commands* except for the incremental
    MAC: ``ICAP_readback`` lazily initializes it (Init MAC_K, action A5)
    and ``MAC_checksum`` finalizes and clears it, so each attestation run
    starts fresh.
    """

    def __init__(
        self,
        board: Board,
        key_provider: KeyProvider,
        device_id: str = "prv-0",
    ) -> None:
        self.board = board
        self.device_id = device_id
        self._key_provider = key_provider
        self._mac: Optional[ChecksumEngine] = None
        self.configs_handled = 0
        self.readbacks_handled = 0
        self.checksums_handled = 0
        # Per-type command counts since the last flush.  Accumulated as
        # plain ints on the per-command hot path and folded into the
        # active registry, by kind name, at run boundaries (checksum /
        # abort) — one metric update per run instead of one per command.
        self._pending_commands: Dict[type, int] = {}

    def _new_checksum(self) -> ChecksumEngine:
        """Init MAC_K (A5).  Subclasses may substitute another engine
        (e.g. the Section-8 signature extension)."""
        return CmacEngine(self._key_provider.mac_key())

    @property
    def mac_in_progress(self) -> bool:
        return self._mac is not None

    def handle_command(
        self, command: Command
    ) -> Union[Response, List[Response], None]:
        """Dispatch one verifier command.

        Returns the response, a list of responses (batched readback
        answers fragment to the MTU), or ``None`` for fire-and-forget
        commands.  The two per-frame commands of the paper's protocol are
        matched first, by exact type.
        """
        if not self.board.powered_on:
            raise ProtocolError("prover board is not powered on")
        counts = self._pending_commands
        counts[type(command)] = counts.get(type(command), 0) + 1
        if type(command) is IcapReadbackCommand:
            frame_index = command.frame_index
            return ReadbackResponse(frame_index, self.handle_readback(frame_index))
        if type(command) is IcapConfigCommand:
            self.handle_config(command.frame_index, command.data)
            return None
        if isinstance(command, IcapConfigBatchCommand):
            self.handle_config_batch(command.frame_indices, command.data)
            return None
        if isinstance(command, IcapReadbackBatchCommand):
            return self.handle_readback_batch(
                command.base_slot, command.frame_indices
            )
        if isinstance(command, IcapReadbackMaskedCommand):
            self.handle_readback_masked(command.frame_index, command.mask)
            return MaskedReadbackAck(frame_index=command.frame_index)
        if isinstance(command, MacChecksumCommand):
            return MacChecksumResponse(tag=self.handle_checksum())
        raise ProtocolError(f"prover cannot handle {type(command).__name__}")

    def handle_config(self, frame_index: int, data: bytes) -> None:
        """ICAP_config: write one frame into the configuration memory."""
        self.board.fpga.icap.write_frame(frame_index, data)
        self.configs_handled += 1

    def handle_readback(self, frame_index: int) -> bytes:
        """ICAP_readback: read one frame, fold it into the MAC, return it.

        The first readback of a run initializes the MAC (A5); every
        readback performs one MAC update step (A6) and sends the frame
        content back (A8) so the verifier can apply the Msk.
        """
        if self._mac is None:
            self._mac = self._new_checksum()
        data = self.board.fpga.icap.readback_frame(frame_index)
        self._mac.update(data)
        self.readbacks_handled += 1
        return data

    def handle_config_batch(
        self, frame_indices: Sequence[int], data: bytes
    ) -> None:
        """Batched ICAP_config: several frames in one vectorized write."""
        if not frame_indices or len(data) % len(frame_indices):
            raise ProtocolError(
                f"config batch of {len(data)} bytes does not split over "
                f"{len(frame_indices)} frames"
            )
        self.board.fpga.icap.write_frames(frame_indices, data)
        self.configs_handled += len(frame_indices)

    def handle_readback_batch(
        self,
        base_slot: int,
        frame_indices: Sequence[int],
        max_payload: int = MAX_PAYLOAD,
    ) -> List[Response]:
        """Batched readback: bulk ICAP sweeps, one MAC fold, MTU fragments.

        The index vector is split into maximal contiguous runs, each
        served by one bulk :meth:`~repro.fpga.icap.Icap.readback_range`;
        the concatenated buffer folds into the MAC in a single update —
        byte-identical to per-frame readback/update steps because CMAC is
        invariant to chunk boundaries — and is sliced into MTU-sized
        :class:`ReadbackBatchResponse` fragments.
        """
        if not frame_indices:
            raise ProtocolError("readback batch must name at least one frame")
        if self._mac is None:
            self._mac = self._new_checksum()
        icap = self.board.fpga.icap
        buffers = [
            icap.readback_range(run.start, len(run))
            for run in contiguous_runs(frame_indices)
        ]
        data = buffers[0] if len(buffers) == 1 else b"".join(buffers)
        self._mac.update(data)
        self.readbacks_handled += len(frame_indices)
        frame_bytes = self.board.fpga.device.frame_bytes
        return list(
            fragment_readback_data(base_slot, data, frame_bytes, max_payload)
        )

    def handle_readback_masked(self, frame_index: int, mask: bytes) -> None:
        """The Section-6.1 alternative: mask before the MAC step.

        The verifier supplies the ``Msk`` for the frame; the prover
        clears the masked (register) bits and folds the *masked* frame
        into the MAC.  No frame content is sent back.
        """
        if self._mac is None:
            self._mac = self._new_checksum()
        data = self.board.fpga.icap.readback_frame(frame_index)
        if len(mask) != len(data):
            raise ProtocolError(
                f"mask of {len(mask)} bytes does not match the "
                f"{len(data)}-byte frame"
            )
        words = np.frombuffer(data, dtype=">u4")
        keep = np.bitwise_not(np.frombuffer(mask, dtype=">u4"))
        self._mac.update((words & keep).astype(">u4").tobytes())
        self.readbacks_handled += 1

    def handle_checksum(self) -> bytes:
        """MAC_checksum: finalize (A7) and return the tag (A10)."""
        if self._mac is None:
            raise ProtocolError(
                "MAC_checksum before any ICAP_readback: nothing to finalize"
            )
        tag = self._mac.finalize()
        self._mac = None
        self.checksums_handled += 1
        self._flush_command_counts()
        return tag

    def _flush_command_counts(self) -> None:
        """Fold the run's per-kind command counts into the registry.

        When the active registry is disabled the counts are discarded,
        so a later enabled run never inherits stale totals.
        """
        counts = self._pending_commands
        if not counts:
            return
        self._pending_commands = {}
        registry = get_registry()
        if not registry.enabled:
            return
        counter = registry.counter(
            "sacha_prover_commands_total",
            "Commands handled by provers, by command kind",
            labels=("kind",),
        )
        by_name = {kind.__name__: count for kind, count in counts.items()}
        for name in sorted(by_name):
            counter.inc(by_name[name], kind=name)

    def abort_run(self) -> None:
        """Drop any in-progress MAC (e.g. the verifier timed out)."""
        self._mac = None
        self._flush_command_counts()


ProverLike = Union[SachaProver]
