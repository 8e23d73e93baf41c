"""Integration tests: the protocol as real traffic on the simulated wire."""

import gc
import tracemalloc
import weakref
import zlib

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.report import Verdict
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import ProtocolError
from repro.fpga.device import SIM_SMALL
from repro.net.arq import ETHERTYPE_ARQ
from repro.net.batch import frames_per_config_batch
from repro.net.channel import Channel, LatencyModel
from repro.net.ethernet import EthernetFrame
from repro.net.messages import (
    OPCODE_READBACK_BATCH_RESPONSE,
    IcapConfigCommand,
    IcapReadbackBatchCommand,
    IcapReadbackCommand,
    ReadbackBatchResponse,
    decode_command,
    decode_response,
)
from repro.net.resequencer import ETHERTYPE_RSQ, ResequencerLink
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


def _session(latency_ns=1_000.0, seed=50, tamper=None):
    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-net", seed=seed)
    if tamper is not None:
        tamper(provisioned, system)
    simulator = Simulator()
    channel = Channel(simulator, LatencyModel(base_ns=latency_ns))
    verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(seed + 1))
    # The paper's per-frame readback: one-index batch commands on the raw
    # channel, reordered and deduplicated by the resequencer.
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
        session, _ = _session()
        result = session.run()
        total_frames = SIM_SMALL.total_frames
        dynamic = session._verifier.system.partition.dynamic_frame_count
        config_batches = -(-dynamic // frames_per_config_batch(SIM_SMALL.frame_bytes))
        # verifier: config batches + one readback per frame + checksum
        assert result.frames_sent_by_verifier == config_batches + total_frames + 1
        # prover: one ConfigAck per config batch + one response fragment
        # per readback + the final tag
        assert result.frames_sent_by_prover == config_batches + total_frames + 1

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
            loss_probability=0.10,
            rng=rng,
        )
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(90))
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(91),
            reliable=True,
        )
        result = session.run()
        assert result.report.accepted
        assert channel.frames_dropped > 0
        assert session._verifier_port.retransmissions > 0

    def test_lossless_reliable_mode_adds_acks_only(self):
        session, _ = _session()
        baseline = session.run()

        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-rel", seed=50)
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
        verifier = SachaVerifier(record.system, record.mac_key, DeterministicRng(51))
        # Same (window=1, batch=1) shape as the raw baseline, so the
        # comparison isolates transport overhead.
        reliable = NetworkAttestationSession(
            simulator, channel, provisioned.prover, verifier,
            DeterministicRng(52), reliable=True,
            arq_window=1, readback_batch_frames=1,
        ).run()
        assert reliable.report.accepted == baseline.report.accepted is True
        # Reliable mode roughly doubles frame counts (one ACK per DATA).
        assert reliable.frames_sent_by_verifier > baseline.frames_sent_by_verifier


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
        fixes up the link CRC-32 gets its frame accepted by the link
        layer, on the raw and on the ARQ transport; the MAC comparison,
        not the CRC, rejects it."""
        for reliable in (False, True):
            session, channel = _reliable_session(8, 256, reliable=reliable)
            rewritten = [0]

            def mitm(time_ns, direction, frame):
                header = {ETHERTYPE_ARQ: 5, ETHERTYPE_RSQ: 4}[frame.ethertype]
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
            assert rewritten[0] == 1, reliable
            assert result.report.verdict is Verdict.REJECT, reliable
            assert not result.report.mac_valid, reliable
            assert session.undecodable_frames == 0, reliable

    @pytest.mark.parametrize("reliable", [False, True], ids=["raw", "arq"])
    @pytest.mark.parametrize("rewrite", ["byte-short", "frame-long", "count-plus-one"])
    def test_malformed_fragment_fails_inconclusive(self, reliable, rewrite):
        """A tap that rewrites one read-back fragment so that its length
        disagrees with its frame count, with a consistent length field
        and link CRC-32, gets the fragment dropped: the attempt drains
        to INCONCLUSIVE instead of raising or judging a misaligned
        sweep."""
        session, channel = _reliable_session(8, 4, reliable=reliable)
        frame_bytes = SIM_SMALL.frame_bytes
        rewritten = [0]

        def tap(time_ns, direction, frame):
            header = {ETHERTYPE_ARQ: 5, ETHERTYPE_RSQ: 4}[frame.ethertype]
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


def _reliable_session(
    window, batch, seed=50, latency_ns=1_000.0, fault_profile=None,
    reliable=True, max_attempts=1,
):
    from repro.net.faults import FaultModel, FaultProfile  # noqa: F401

    system = build_sacha_system(SIM_SMALL)
    provisioned, record = provision_device(system, "prv-pipe", seed=seed)
    simulator = Simulator()
    model = None
    if fault_profile is not None:
        model = FaultModel(fault_profile, DeterministicRng(seed + 9).fork("f"))
    channel = Channel(
        simulator, LatencyModel(base_ns=latency_ns), fault_model=model
    )
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 1)
    )
    session = NetworkAttestationSession(
        simulator,
        channel,
        provisioned.prover,
        verifier,
        DeterministicRng(seed + 2),
        reliable=reliable,
        max_attempts=max_attempts,
        arq_window=window,
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
            session, _ = _reliable_session(*shape)
            result = session.run()
            assert result.report.accepted, f"shape {shape} rejected"
            results[shape] = (session._tag, result.report.nonce)
        tags = {tag for tag, _ in results.values()}
        nonces = {nonce for _, nonce in results.values()}
        assert len(tags) == 1
        assert len(nonces) == 1

    def test_pipelined_moves_far_fewer_frames(self):
        one_frame, _ = _reliable_session(1, 1)
        pipelined, _ = _reliable_session(8, 256)
        slow = one_frame.run()
        fast = pipelined.run()
        assert slow.report.accepted and fast.report.accepted
        assert (
            fast.frames_sent_by_verifier < slow.frames_sent_by_verifier / 4
        )
        assert fast.frames_sent_by_prover < slow.frames_sent_by_prover / 4

    def test_raw_channel_pipelines_through_resequencer(self):
        """Pipelining needs in-order delivery, not reliability: on a raw
        channel the session interposes the resequencer and streams the
        batched transport."""
        session, _ = _reliable_session(8, 256, reliable=False)
        assert isinstance(session._verifier_port, ResequencerLink)
        result = session.run()
        assert result.report.accepted
        assert isinstance(session._verifier_port, ResequencerLink)
        total_frames = SIM_SMALL.total_frames
        dynamic = session._verifier.system.partition.dynamic_frame_count
        # Far fewer frames than one command per configured and read frame.
        assert result.frames_sent_by_verifier < (dynamic + total_frames + 1) / 4

    def test_raw_one_frame_batches_ride_the_resequencer(self):
        """A raw session at batch 1 sends the same wire as any other
        batch size: resequencer frames carrying one-index batch
        commands, never a headerless per-frame SACHa payload."""
        session, channel = _reliable_session(1, 1, reliable=False)
        ethertypes = set()
        commands = []

        def tap(time_ns, direction, frame):
            ethertypes.add(frame.ethertype)
            if direction == "vrf->prv":
                # sequence(4) + SACHa message + CRC-32(4)
                commands.append(decode_command(frame.payload[4:-4]))

        channel.add_tap(tap)
        result = session.run()
        assert result.report.accepted
        assert ethertypes == {ETHERTYPE_RSQ}
        readbacks = [c for c in commands if isinstance(c, IcapReadbackBatchCommand)]
        assert [len(c.frame_indices) for c in readbacks] == [1] * SIM_SMALL.total_frames
        assert not any(
            isinstance(c, (IcapConfigCommand, IcapReadbackCommand)) for c in commands
        )

    def test_raw_one_frame_batches_on_sim_medium(self, provisioned_medium):
        """289 one-index commands overtake the config batches sent before
        them; the reorder window holds every payload of the attempt, so
        none is dropped as overflow."""
        provisioned, record = provisioned_medium
        simulator = Simulator()
        session = NetworkAttestationSession(
            simulator,
            Channel(simulator, LatencyModel(base_ns=5_000.0)),
            provisioned.prover,
            SachaVerifier(record.system, record.mac_key, DeterministicRng(5)),
            DeterministicRng(6),
            readback_batch_frames=1,
        )
        result = session.run()
        assert result.report.accepted
        assert result.attempts == 1
        assert session._prover_port.overflow_dropped == 0
        assert session._verifier_port.overflow_dropped == 0

    def test_out_of_plan_fragment_is_ignored(self):
        """A fragment that is not the next contiguous plan slice cannot
        touch the MAC stream."""
        from repro.net.messages import ReadbackBatchResponse

        session, _ = _reliable_session(8, 256)
        result = session.run()
        assert result.report.accepted
        before = session.unexpected_frames
        frame_bytes = session._verifier.system.device.frame_bytes
        rogue = ReadbackBatchResponse(
            base_slot=5, frame_count=1, data=bytes(frame_bytes)
        )
        session._on_verifier_delivery(
            EthernetFrame(
                destination=session.verifier_endpoint.mac,
                source=session.prover_endpoint.mac,
                ethertype=0x88B5,
                payload=rogue.encode(),
            )
        )
        assert session.unexpected_frames == before + 1

    def test_premature_checksum_response_is_ignored(self):
        """A MAC tag arriving before the sweep completes must not be
        trusted: a missing fragment fails towards inconclusive, never
        towards a verdict over partial data."""
        from repro.net.messages import MacChecksumResponse

        session, _ = _reliable_session(8, 256)
        session._phase = session._phase.__class__.READBACK
        session._plan = [0, 1, 2, 3]
        session._rx_slot = 0
        before = session.unexpected_frames
        session._on_verifier_delivery(
            EthernetFrame(
                destination=session.verifier_endpoint.mac,
                source=session.prover_endpoint.mac,
                ethertype=0x88B5,
                payload=MacChecksumResponse(tag=bytes(16)).encode(),
            )
        )
        assert session.unexpected_frames == before + 1
        assert session._tag is None


class TestFaultCompatibility:
    """Duplication/reorder faults on a raw channel would desynchronize
    the incremental MAC into a false reject — the session interposes
    the resequencing buffer so delivery to the protocol layer stays
    in-order and exactly-once without requiring the full ARQ."""

    def _channel_with(self, profile):
        from repro.net.faults import FaultModel

        simulator = Simulator()
        model = FaultModel(profile, DeterministicRng(5).fork("f"))
        channel = Channel(
            simulator, LatencyModel(base_ns=1_000.0), fault_model=model
        )
        return simulator, channel

    def _build(self, simulator, channel, reliable):
        from repro.core.provisioning import provision_device

        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-fc", seed=61)
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(62)
        )
        return NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            DeterministicRng(63),
            reliable=reliable,
        )

    def test_duplication_on_raw_channel_resequenced(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(duplication_probability=0.1)
        )
        session = self._build(simulator, channel, reliable=False)
        assert isinstance(session._verifier_port, ResequencerLink)
        assert session.run().report.accepted

    def test_reorder_on_raw_channel_resequenced(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(reorder_probability=0.1, reorder_extra_ns=1e5)
        )
        session = self._build(simulator, channel, reliable=False)
        assert isinstance(session._verifier_port, ResequencerLink)
        assert session.run().report.accepted

    def test_same_faults_allowed_over_arq(self):
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(
                duplication_probability=0.1,
                reorder_probability=0.1,
                reorder_extra_ns=1e5,
            )
        )
        session = self._build(simulator, channel, reliable=True)
        assert session.run().report.accepted

    def test_loss_alone_allowed_raw(self):
        """Loss fails towards inconclusive, never a wrong verdict, so it
        stays legal on the raw transport."""
        from repro.net.faults import FaultProfile

        simulator, channel = self._channel_with(
            FaultProfile(loss_probability=0.01)
        )
        self._build(simulator, channel, reliable=False)  # must not raise


class TestWindowPrecedence:
    """`arq_tuning` is the single source of truth when supplied; a
    conflicting explicit `arq_window` is a configuration error, not a
    silent override."""

    def _build(self, **kwargs):
        system = build_sacha_system(SIM_SMALL)
        provisioned, record = provision_device(system, "prv-wp", seed=71)
        simulator = Simulator()
        channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
        verifier = SachaVerifier(
            record.system, record.mac_key, DeterministicRng(72)
        )
        return NetworkAttestationSession(
            simulator, channel, provisioned.prover, verifier,
            DeterministicRng(73), reliable=True, **kwargs,
        )

    def test_conflicting_windows_rejected(self):
        from repro.net.arq import ArqTuning

        with pytest.raises(ProtocolError, match="conflicting ARQ windows"):
            self._build(arq_window=4, arq_tuning=ArqTuning(window=8))

    def test_matching_windows_accepted(self):
        from repro.net.arq import ArqTuning

        session = self._build(arq_window=8, arq_tuning=ArqTuning(window=8))
        assert session._arq_window == 8

    def test_tuning_alone_sets_window_and_adaptivity(self):
        from repro.net.arq import ArqTuning

        session = self._build(arq_tuning=ArqTuning(window=16, adaptive=True))
        assert session._arq_window == 16
        assert session._arq_adaptive

    def test_explicit_window_alone_accepted(self):
        session = self._build(arq_window=3)
        assert session._arq_window == 3

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ProtocolError, match="window"):
            self._build(arq_window=0)


class TestCumulativeConfigAcks:
    """The pipelined transport streams config batches without per-frame
    responses; cumulative ConfigAcks close the loop so a run whose
    configuration never landed fails safe instead of timing out in
    later phases or producing an unexplained reject."""

    def test_pipelined_run_acks_every_config_frame(self):
        session, _ = _reliable_session(8, 256)
        assert session.run().report.accepted
        assert session._config_steps > 0
        assert session._config_acked == session._config_steps

    def test_one_frame_batches_ack_every_config_frame(self):
        """Batch 1 streams the configuration in batches like any other
        batch size, and each batch is acked, on either transport."""
        for reliable in (False, True):
            session, _ = _reliable_session(1, 1, reliable=reliable)
            assert session.run().report.accepted, reliable
            assert session._config_steps > 0
            assert session._config_acked == session._config_steps, reliable

    def test_missing_acks_fail_toward_inconclusive(self, monkeypatch):
        for shape in ((8, 256), (1, 1)):
            session, _ = _reliable_session(*shape)
            monkeypatch.setattr(session, "_send_config_ack", lambda: None)
            result = session.run()
            assert result.report.verdict is Verdict.INCONCLUSIVE, shape
            assert "config_unacked" in result.report.failure_reason, shape


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
            reliable=True,
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
