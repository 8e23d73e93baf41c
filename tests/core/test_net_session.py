"""Integration tests: the protocol as real traffic on the simulated wire."""

import gc
import tracemalloc
import weakref
import zlib
from collections import Counter

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.report import Verdict
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import ProtocolError
from repro.fpga.device import SIM_SMALL
from repro.net.arq import ArqLink, ArqTuning
from repro.net.batch import frames_per_config_batch
from repro.net.channel import Channel, LatencyModel
from repro.net.faults import FaultModel, FaultProfile
from repro.net.messages import (
    OPCODE_CONFIG_ACK,
    OPCODE_READBACK_BATCH_RESPONSE,
    ConfigAck,
    IcapConfigBatchCommand,
    IcapReadbackBatchCommand,
    MacChecksumCommand,
    MacChecksumResponse,
    ReadbackBatchResponse,
    decode_command,
    decode_response,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng

#: ARQ DATA bytes ahead of the SACHa message: type(1) + sequence(4).  A
#: little-endian CRC-32(4) over both ends the frame.
DATA_HEADER_BYTES = 5


def _sacha_message(frame):
    """The SACHa message an ARQ DATA frame carries: ``(link sequence
    number, message bytes)``, or ``None`` for an ACK."""
    if frame.payload[0] == 0x02:
        return None
    sequence = int.from_bytes(frame.payload[1:DATA_HEADER_BYTES], "big")
    return sequence, frame.payload[DATA_HEADER_BYTES:-4]


def _session(latency_ns=1_000.0, seed=50, tamper=None):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-net", seed=seed)
    if tamper is not None:
        tamper(provisioned, system)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=latency_ns))
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1))
    # The paper's per-frame readback: one-index batch commands over the
    # ARQ at its default window.
    session = NetworkAttestationSession(
        simulator, channel, provisioned.prover, verifier, DeterministicRng(seed + 2),
        readback_batch_frames=1,
    )
    return session, channel


class TestHonestNetworkRun:
    def test_accepted_over_the_wire(self):
        session, _ = _session()
        result = session.run()
        assert result.report.accepted

    def test_message_counts(self):
        """At batch 1 the ARQ DATA frames carry exactly these messages:
        the config batches, one one-index readback batch per frame and
        one checksum from the verifier; one ConfigAck, one fragment per
        frame and the tag from the prover.  No per-frame
        ``IcapConfigCommand`` or ``IcapReadbackCommand`` rides the wire."""
        session, channel = _session()
        commands, responses = [], []

        def tap(time_ns, direction, frame):
            carried = _sacha_message(frame)
            if carried is None:
                return
            if direction == "vrf->prv":
                commands.append(decode_command(carried[1]))
            else:
                responses.append(decode_response(carried[1]))

        channel.add_tap(tap)
        result = session.run()
        assert result.report.accepted
        assert session.total_retransmissions == 0  # each message crossed once
        total_frames = SIM_SMALL.total_frames
        dynamic = session._verifier.system.partition.dynamic_frame_count
        config_batches = -(-dynamic // frames_per_config_batch(SIM_SMALL.frame_bytes))
        assert Counter(type(command) for command in commands) == {
            IcapConfigBatchCommand: config_batches,
            IcapReadbackBatchCommand: total_frames,
            MacChecksumCommand: 1,
        }
        readbacks = [c for c in commands if isinstance(c, IcapReadbackBatchCommand)]
        assert {len(command.frame_indices) for command in readbacks} == {1}
        assert Counter(type(response) for response in responses) == {
            ConfigAck: 1,
            ReadbackBatchResponse: total_frames,
            MacChecksumResponse: 1,
        }

    def test_duration_grows_with_latency(self):
        fast, _ = _session(latency_ns=100.0)
        slow, _ = _session(latency_ns=100_000.0)
        assert slow.run().duration_ns > fast.run().duration_ns

    def test_session_cannot_run_twice(self):
        session, _ = _session()
        session.run()
        with pytest.raises(ProtocolError):
            session.run()


class TestReliableSession:
    def test_attestation_survives_frame_loss(self):
        """With the ARQ layer, a 10 %-lossy channel still completes and
        accepts; without it the run would deadlock."""
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-lossy", seed=88)
        simulator = Simulator()
        rng = DeterministicRng(89)
        channel = Channel(
            simulator,
            LatencyModel(base_ns=5_000.0),
            fault_model=FaultModel(FaultProfile(loss_probability=0.10), rng),
        )
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(90))
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(91),
        )
        result = session.run()
        assert result.report.accepted
        assert channel.frames_dropped > 0
        assert session._verifier_port.retransmissions > 0

    def test_reliable_keyword_accepts_only_true(self):
        """Every session runs over the ARQ: ``reliable=True`` (what the
        end-to-end benchmark passes) builds its two ARQ links, and
        ``reliable=False`` is refused."""
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-kw", seed=50)
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(51))
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
        session = NetworkAttestationSession(
            simulator, channel, provisioned.prover, verifier, reliable=True
        )
        assert isinstance(session._verifier_port, ArqLink)
        assert isinstance(session._prover_port, ArqLink)
        with pytest.raises(ProtocolError, match="ARQ"):
            NetworkAttestationSession(
                simulator, channel, provisioned.prover, verifier, reliable=False
            )


class TestNetworkAdversaries:
    def test_static_tamper_detected_over_the_wire(self):
        def tamper(provisioned, system):
            frame = system.partition.static_frame_list()[1]
            provisioned.board.fpga.memory.flip_bit(frame, 0, 9)

        session, _ = _session(tamper=tamper)
        result = session.run()
        assert not result.report.accepted

    def test_mitm_frame_rewrite_detected(self):
        """A tap that flips one data byte of a readback response and
        fixes up the link CRC-32 gets its frame accepted by the ARQ; the
        MAC comparison, not the CRC, rejects it."""
        session, channel = _shaped_session(8, 256)
        rewritten = [0]
        header = DATA_HEADER_BYTES

        def mitm(time_ns, direction, frame):
            body = bytearray(frame.payload[:-4])
            if (
                direction == "prv->vrf"
                and not rewritten[0]
                and len(body) > header + 11
                and body[header] == OPCODE_READBACK_BATCH_RESPONSE
            ):
                body[header + 11] ^= 0xFF  # first data byte
                rewritten[0] = 1
                crc = zlib.crc32(body).to_bytes(4, "little")
                return frame._replace(payload=bytes(body) + crc)
            return None

        channel.add_tap(mitm)
        result = session.run()
        assert rewritten[0] == 1
        assert result.report.verdict is Verdict.REJECT
        assert not result.report.mac_valid
        assert session.undecodable_frames == 0

    @pytest.mark.parametrize("rewrite", ["byte-short", "frame-long", "count-plus-one"])
    def test_malformed_fragment_fails_inconclusive(self, rewrite):
        """A tap that rewrites one read-back fragment so that its length
        disagrees with its frame count, with a consistent length field
        and link CRC-32, gets the fragment dropped: the attempt drains
        to INCONCLUSIVE instead of raising or judging a misaligned
        sweep."""
        session, channel = _shaped_session(8, 4)
        frame_bytes = SIM_SMALL.frame_bytes
        rewritten = [0]
        header = DATA_HEADER_BYTES

        def tap(time_ns, direction, frame):
            body = frame.payload[:-4]
            if (
                direction != "prv->vrf"
                or rewritten[0]
                or len(body) <= header
                or body[header] != OPCODE_READBACK_BATCH_RESPONSE
            ):
                return None
            fragment = decode_response(body[header:])
            count, data = fragment.frame_count, fragment.data
            if rewrite == "byte-short":
                data = data[:-1]
            elif rewrite == "frame-long":
                data = data + data[:frame_bytes]
            else:
                count += 1
            body = body[:header] + ReadbackBatchResponse(
                fragment.base_slot, count, data
            ).encode()
            rewritten[0] = 1
            return frame._replace(
                payload=body + zlib.crc32(body).to_bytes(4, "little")
            )

        channel.add_tap(tap)
        result = session.run()
        assert rewritten[0] == 1
        assert result.report.verdict is Verdict.INCONCLUSIVE
        assert session.unexpected_frames >= 1

    def test_eavesdropper_learns_no_key_material(self):
        """Everything on the wire is configuration data and the MAC; the
        16-byte key never appears in any frame."""
        session, channel = _session()
        observed = []
        channel.add_tap(lambda t, d, f: observed.append(f.payload) or None)
        session.run()
        key = session._prover._key_provider.mac_key()
        assert all(key not in payload for payload in observed)


def _shaped_session(window, batch):
    """A SIM-SMALL session at (window, batch) on a clean 1 µs link."""
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-pipe", seed=50)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(51))
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(52),
        arq_tuning=ArqTuning(window=window),
        readback_batch_frames=batch,
    )
    return session, channel


class TestPipelinedTransport:
    def test_tags_identical_across_transport_shapes(self):
        """The transport shape is invisible to the protocol crypto: any
        (window, batch) combination produces byte-identical MAC tags and
        nonces for the same seeds."""
        results = {}
        for shape in ((1, 1), (8, 256), (4, 64), (32, 1024), (1, 256), (8, 1)):
            session, _ = _shaped_session(*shape)
            result = session.run()
            assert result.report.accepted, f"shape {shape} rejected"
            results[shape] = (session._tag, result.report.nonce)
        tags = {tag for tag, _ in results.values()}
        nonces = {nonce for _, nonce in results.values()}
        assert len(tags) == 1
        assert len(nonces) == 1

    def test_pipelined_moves_far_fewer_frames(self):
        one_frame, _ = _shaped_session(1, 1)
        pipelined, _ = _shaped_session(8, 256)
        slow = one_frame.run()
        fast = pipelined.run()
        assert slow.report.accepted and fast.report.accepted
        assert (
            fast.frames_sent_by_verifier < slow.frames_sent_by_verifier / 4
        )
        assert fast.frames_sent_by_prover < slow.frames_sent_by_prover / 4

    def test_out_of_plan_fragment_is_ignored(self):
        """A fragment that is not the next contiguous plan slice cannot
        touch the MAC stream."""
        from repro.net.messages import ReadbackBatchResponse

        session, _ = _shaped_session(8, 256)
        result = session.run()
        assert result.report.accepted
        before = session.unexpected_frames
        frame_bytes = session._verifier.system.device.frame_bytes
        rogue = ReadbackBatchResponse(
            base_slot=5, frame_count=1, data=bytes(frame_bytes)
        )
        session._on_verifier_delivery(rogue.encode())
        assert session.unexpected_frames == before + 1

    def test_premature_checksum_response_is_ignored(self):
        """A MAC tag arriving before the sweep completes must not be
        trusted: a missing fragment fails towards inconclusive, never
        towards a verdict over partial data."""
        from repro.net.messages import MacChecksumResponse

        session, _ = _shaped_session(8, 256)
        session._phase = session._phase.__class__.READBACK
        session._plan = [0, 1, 2, 3]
        session._rx_slot = 0
        before = session.unexpected_frames
        session._on_verifier_delivery(MacChecksumResponse(tag=bytes(16)).encode())
        assert session.unexpected_frames == before + 1
        assert session._tag is None


class TestFaultCompatibility:
    """Duplication and reordering on the channel would desynchronize the
    incremental MAC into a false reject if they reached the protocol;
    the ARQ hands every payload over exactly once and in order."""

    def test_same_faults_allowed_over_arq(self):
        simulator = Simulator()
        profile = FaultProfile(
            duplication_probability=0.1,
            reorder_probability=0.1,
            reorder_extra_ns=1e5,
        )
        channel = Channel(
            simulator,
            LatencyModel(base_ns=1_000.0),
            fault_model=FaultModel(profile, DeterministicRng(5).fork("f")),
        )
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-fc", seed=61)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(62)
        )
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(63),
        )
        assert session.run().report.accepted


class TestCumulativeConfigAcks:
    """The pipelined transport streams config batches without per-frame
    responses; cumulative ConfigAcks close the loop so a run whose
    configuration never landed fails safe instead of timing out in
    later phases or producing an unexplained reject."""

    def test_pipelined_run_acks_every_config_frame(self):
        session, _ = _shaped_session(8, 256)
        assert session.run().report.accepted
        assert session._config_steps > 0
        assert session._config_acked == session._config_steps

    def test_one_frame_batches_ack_every_config_frame(self):
        """Batch 1 streams the configuration in batches like any other
        batch size, and the configuration phase is acked."""
        session, _ = _shaped_session(1, 1)
        assert session.run().report.accepted
        assert session._config_steps > 0
        assert session._config_acked == session._config_steps

    def test_missing_acks_fail_toward_inconclusive(self, monkeypatch):
        for shape in ((8, 256), (1, 1)):
            session, _ = _shaped_session(*shape)
            monkeypatch.setattr(session, "_send_config_ack", lambda: None)
            result = session.run()
            assert result.report.verdict is Verdict.INCONCLUSIVE, shape
            assert "config_unacked" in result.report.failure_reason, shape


def _medium_session(provisioned_medium, tampered=False, **options):
    provisioned, record = provisioned_medium
    if tampered:
        bit = record.system.first_unmasked_static_bit()
        provisioned.board.fpga.memory.flip_bit(
            bit.frame_index, bit.word_index, bit.bit_index
        )
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=5_000.0))
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        SachaVerifier(record.system, record.mac_key, DeterministicRng(5)),
        DeterministicRng(6),
        **options,
    )
    return session, channel


class TestOneConfigAckPerPhase:
    """The prover acks the configuration phase once, cumulatively, when
    the first read-back batch arrives.  SIM-MEDIUM configures 214 frames
    in six batches, so one ack per batch and one per phase differ."""

    @staticmethod
    def _record_messages(session, channel):
        """Every distinct message in wire order, keyed by ``(direction,
        attempt nonce, link sequence number)``."""
        seen = {}

        def tap(time_ns, direction, frame):
            carried = _sacha_message(frame)
            if carried is not None:
                sequence, message = carried
                decode = decode_response if direction == "prv->vrf" else decode_command
                seen.setdefault((direction, session._nonce, sequence), decode(message))

        channel.add_tap(tap)
        return seen

    def test_one_ack_covers_the_phase_before_the_first_fragment(
        self, provisioned_medium
    ):
        session, channel = _medium_session(provisioned_medium)
        seen = self._record_messages(session, channel)
        result = session.run()
        assert result.report.accepted
        commands = [m for (side, *_), m in seen.items() if side == "vrf->prv"]
        responses = [m for (side, *_), m in seen.items() if side == "prv->vrf"]
        assert sum(isinstance(c, IcapConfigBatchCommand) for c in commands) == 6
        kinds = [type(response) for response in responses]
        assert kinds.count(ConfigAck) == 1
        assert kinds.index(ConfigAck) < kinds.index(ReadbackBatchResponse)
        (ack,) = [r for r in responses if isinstance(r, ConfigAck)]
        assert ack.frames_applied == session._config_steps == 214

    @pytest.mark.parametrize("tampered", [False, True], ids=["clean", "tampered"])
    def test_under_reported_ack_fails_closed(self, provisioned_medium, tampered):
        """A tap that lowers ``frames_applied`` and fixes up the link
        CRC-32 gets the ack through: every attempt ends
        ``config_unacked``, never ACCEPT and never REJECT."""
        session, channel = _medium_session(
            provisioned_medium, tampered, max_attempts=2
        )
        rewritten = []

        def tap(time_ns, direction, frame):
            carried = _sacha_message(frame)
            if direction != "prv->vrf" or carried is None:
                return None
            _, message = carried
            if message[0] != OPCODE_CONFIG_ACK:
                return None
            applied = decode_response(message).frames_applied
            body = frame.payload[:DATA_HEADER_BYTES] + ConfigAck(applied - 1).encode()
            rewritten.append(applied)
            return frame._replace(
                payload=body + zlib.crc32(body).to_bytes(4, "little")
            )

        channel.add_tap(tap)
        result = session.run()
        assert rewritten == [214, 214]
        assert result.report.verdict is Verdict.INCONCLUSIVE
        assert "config_unacked" in result.report.failure_reason
        assert result.attempts == 2

    @pytest.mark.parametrize("tampered", [False, True], ids=["clean", "tampered"])
    def test_retry_acks_its_own_configuration_once(
        self, provisioned_medium, tampered
    ):
        """An attempt that dies after configuring (every prover frame of
        it corrupted on the wire) leaves the retry one ack, counting the
        retry's configuration frames only."""
        session, channel = _medium_session(
            provisioned_medium,
            tampered,
            max_attempts=2,
            arq_tuning=ArqTuning(max_retries=2),
        )
        seen = self._record_messages(session, channel)
        first_nonce = []

        def kill_first_attempt(time_ns, direction, frame):
            first_nonce[:] = first_nonce or [session._nonce]
            if direction == "prv->vrf" and session._nonce == first_nonce[0]:
                return frame._replace(payload=bytes(len(frame.payload)))
            return None

        channel.add_tap(kill_first_attempt)
        result = session.run()
        assert result.attempts == 2
        expected = Verdict.REJECT if tampered else Verdict.ACCEPT
        assert result.report.verdict is expected
        retry_acks = [
            message.frames_applied
            for (_, nonce, _), message in seen.items()
            if nonce == result.report.nonce and isinstance(message, ConfigAck)
        ]
        assert retry_acks == [session._config_steps] == [214]


class TestFinishedSessionMemory:
    """A finished session is freed by reference counting.

    Its ports and handlers link back to it, so without unlinking, each
    session and its sweep buffers live until a gen-2 collection; a hot
    path that allocates fewer GC-tracked objects collects later and
    holds more sessions at once.  With the cyclic GC off, neither the
    session nor its buffers may add up with the number of sessions run.
    """

    @staticmethod
    def _run(provisioned_medium, seed):
        provisioned, record = provisioned_medium
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LatencyModel(base_ns=5_000.0)),
            provisioned.prover,
            SachaVerifier(record.system, record.mac_key, DeterministicRng(seed)),
            DeterministicRng(seed + 1),
        )
        assert session.run().report.accepted
        return weakref.ref(session)

    def test_session_freed_without_the_cyclic_gc(self, provisioned_medium):
        self._run(provisioned_medium, 1)  # warm the shared golden caches
        gc.collect()
        gc.disable()
        try:
            assert self._run(provisioned_medium, 2)() is None
        finally:
            gc.enable()

    def test_traced_memory_does_not_grow_with_sessions(self, provisioned_medium):
        self._run(provisioned_medium, 1)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            self._run(provisioned_medium, 2)
            after_one, _ = tracemalloc.get_traced_memory()
            for seed in range(3, 9):
                self._run(provisioned_medium, seed)
            after_seven, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        # What stays behind is the caller's channel and simulator, which
        # link to each other (~4 KiB); a retained SIM-MEDIUM session with
        # its responses and readback plan is ~130 KiB.
        assert (after_seven - after_one) / 6 < 16 * 1024
