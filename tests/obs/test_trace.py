"""Trace ids: nonce-derived ids, stamping, nesting, span-dump merging."""

import json

import pytest

from repro.core.net_session import NetworkAttestationSession
from repro.core.provisioning import provision_device
from repro.core.verifier import SachaVerifier
from repro.design.sacha_design import build_sacha_system
from repro.errors import ObservabilityError
from repro.fpga.device import SIM_MEDIUM, SIM_SMALL
from repro.net.arq import ArqTuning
from repro.net.channel import Channel, LatencyModel
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.spans import SpanRecord, span, span_tree
from repro.obs.trace import (
    TRACE_ID_BYTES,
    current_trace,
    load_span_dump,
    merge_span_dumps,
    span_records_from_jsonl,
    trace_context,
    trace_id_from_nonce,
    trace_ids,
)
from repro.sim.events import Simulator
from repro.utils.rng import DeterministicRng


class TestTraceId:
    def test_deterministic_and_hex(self):
        nonce = bytes(range(16))
        first = trace_id_from_nonce(nonce)
        assert first == trace_id_from_nonce(nonce)
        assert len(first) == TRACE_ID_BYTES * 2
        assert int(first, 16) >= 0

    def test_distinct_nonces_distinct_ids(self):
        assert trace_id_from_nonce(b"\x00" * 16) != trace_id_from_nonce(
            b"\x01" * 16
        )

    def test_domain_separated_from_plain_sha256(self):
        import hashlib

        nonce = b"\xaa" * 16
        plain = hashlib.sha256(nonce).hexdigest()[: TRACE_ID_BYTES * 2]
        assert trace_id_from_nonce(nonce) != plain


class TestTraceContext:
    def test_context_stamps_spans(self, registry):
        with trace_context("cafe01", "verifier"):
            assert current_trace().trace_id == "cafe01"
            with span("outer"):
                with span("inner"):
                    pass
        assert current_trace() is None
        assert [s.trace_id for s in registry.spans] == ["cafe01", "cafe01"]
        assert [s.session for s in registry.spans] == ["verifier", "verifier"]

    def test_no_context_leaves_fields_empty(self, registry):
        with span("bare"):
            pass
        assert registry.spans[0].trace_id == ""
        assert registry.spans[0].session == ""

    def test_contexts_nest_and_restore(self, registry):
        with trace_context("aa", "one"):
            with trace_context("bb", "two"):
                assert current_trace().session == "two"
            assert current_trace().trace_id == "aa"


class TestJsonlRoundTrip:
    def test_records_survive_serialization(self):
        records = [
            SpanRecord(
                span_id=1,
                parent_id=None,
                name="root",
                start_ns=0.0,
                end_ns=50.0,
                attributes={"result": "accept"},
                trace_id="feed",
                session="verifier",
                events=[{"name": "arq.send", "t_ns": 5.0, "seq": 1}],
            ),
            SpanRecord(
                span_id=2,
                parent_id=1,
                name="child",
                start_ns=10.0,
                end_ns=20.0,
                status="error",
                error="boom",
            ),
        ]
        text = "".join(json.dumps(r.to_dict()) + "\n" for r in records)
        assert span_records_from_jsonl(text) == records

    def test_non_span_lines_skipped(self):
        text = (
            '{"record": "log", "event": "hello"}\n'
            "\n"
            '{"record": "span", "span_id": 3, "parent_id": null,'
            ' "name": "x", "start_ns": 0, "end_ns": 1, "status": "ok"}\n'
        )
        records = span_records_from_jsonl(text)
        assert [r.name for r in records] == ["x"]

    def test_invalid_json_raises(self):
        with pytest.raises(ObservabilityError, match="line 1"):
            span_records_from_jsonl("not json\n")

    def test_load_span_dump(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        record = SpanRecord(
            span_id=7, parent_id=None, name="solo", start_ns=1.0, end_ns=2.0
        )
        path.write_text(json.dumps(record.to_dict()) + "\n", encoding="utf-8")
        assert load_span_dump(path) == [record]


def _rec(span_id, parent_id, name, start, end, trace="", session=""):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start_ns=float(start),
        end_ns=float(end),
        trace_id=trace,
        session=session,
    )


class TestMergeSpanDumps:
    def test_ids_rebased_without_collision(self):
        verifier = [_rec(1, None, "a", 0, 10), _rec(2, 1, "b", 1, 2)]
        prover = [_rec(1, None, "c", 3, 4), _rec(2, 1, "d", 3, 4)]
        merged = merge_span_dumps([verifier, prover])
        assert sorted(r.span_id for r in merged) == [1, 2, 3, 4]
        child = next(r for r in merged if r.name == "d")
        parent = next(r for r in merged if r.name == "c")
        assert child.parent_id == parent.span_id

    def test_parentless_trace_spans_stay_roots(self):
        """Merging re-bases ids and keeps every parent link as recorded:
        a parentless span of a trace is not hung under another dump's."""
        first = [
            _rec(1, None, "session_attempt", 0, 100, trace="t1", session="verifier"),
            _rec(2, 1, "config", 5, 20, trace="t1", session="verifier"),
        ]
        second = [
            _rec(1, None, "prover_config", 10, 10, trace="t1", session="prv-0"),
        ]
        merged = merge_span_dumps([first, second])
        parents = {r.name: r.parent_id for r in merged}
        assert parents == {
            "session_attempt": None,
            "config": 1,
            "prover_config": None,
        }

    def test_one_run_split_across_dumps_keeps_its_links(self):
        """A dump that continues a run (a shared trace id, no reused span
        id) keeps its ids, so parent links across the split resolve."""
        first = [
            _rec(3, 2, "prover_config", 10, 10, trace="t1", session="prv-0"),
            _rec(4, 2, "prover_readback", 20, 20, trace="t1", session="prv-0"),
        ]
        second = [
            _rec(2, 1, "session_attempt", 0, 100, trace="t1", session="verifier"),
            _rec(1, None, "net_session", 0, 100),
        ]
        merged = merge_span_dumps([first, second])
        assert {r.name: (r.span_id, r.parent_id) for r in merged} == {
            "net_session": (1, None),
            "session_attempt": (2, 1),
            "prover_config": (3, 2),
            "prover_readback": (4, 2),
        }

    def test_dumps_of_different_runs_are_rebased(self):
        """Disjoint ids alone do not make one run: a dump whose traces
        are new is shifted past the ids merged so far."""
        first = [_rec(1, None, "session_attempt", 0, 10, trace="t1")]
        second = [_rec(2, 1, "prover_config", 3, 4, trace="t2")]
        merged = merge_span_dumps([first, second])
        assert {r.name: (r.span_id, r.parent_id) for r in merged} == {
            "session_attempt": (1, None),
            "prover_config": (3, 2),
        }

    def test_untraced_spans_stay_roots(self):
        merged = merge_span_dumps(
            [[_rec(1, None, "a", 0, 1, trace="t")], [_rec(1, None, "b", 2, 3)]]
        )
        roots = [r for r in merged if r.parent_id is None]
        assert {r.name for r in roots} == {"a", "b"}

    def test_merge_is_deterministic(self):
        dumps = [
            [_rec(2, None, "late", 9, 10, trace="t"), _rec(1, None, "a", 0, 5, trace="t")],
            [_rec(1, None, "b", 3, 4, trace="t")],
        ]
        first = merge_span_dumps([list(d) for d in dumps])
        second = merge_span_dumps([list(d) for d in dumps])
        assert first == second
        assert [r.start_ns for r in first] == sorted(r.start_ns for r in first)

    def test_trace_ids_sorted_distinct(self):
        spans = [
            _rec(1, None, "a", 0, 1, trace="bb"),
            _rec(2, None, "b", 1, 2, trace="aa"),
            _rec(3, None, "c", 2, 3),
        ]
        assert trace_ids(spans) == ["aa", "bb"]


def _networked_dump(seed=50, device=SIM_MEDIUM, kill_first_attempt=False):
    """Run a networked attestation under one enabled registry.

    ``kill_first_attempt`` zeroes every prover frame on the wire while
    the first attempt's nonce is live, so that attempt's ARQ link gives
    up after two retries and the session runs a second one.  Returns the
    result and the registry's span dump (JSONL), which holds both
    parties' spans.
    """
    system = build_sacha_system(device)
    provisioned, record = provision_device(system, "prv-net", seed=seed)
    simulator = Simulator()
    rng = DeterministicRng(seed + 2)
    channel = Channel(simulator, LatencyModel(base_ns=1_000.0))
    verifier = SachaVerifier(
        record.system, record.mac_key, DeterministicRng(seed + 1)
    )
    registry = MetricsRegistry(enabled=True)
    with use_registry(registry):
        session = NetworkAttestationSession(
            simulator,
            channel,
            provisioned.prover,
            verifier,
            rng.fork("session"),
            arq_tuning=ArqTuning(max_retries=2) if kill_first_attempt else None,
            max_attempts=3,
        )
        if kill_first_attempt:
            first_nonce = []

            def kill_first(time_ns, direction, frame):
                first_nonce[:] = first_nonce or [session._nonce]
                if direction == "prv->vrf" and session._nonce == first_nonce[0]:
                    return frame._replace(payload=bytes(len(frame.payload)))
                return None

            channel.add_tap(kill_first)
        result = session.run()
    dump = "".join(json.dumps(r.to_dict()) + "\n" for r in registry.spans)
    return result, dump


class TestNetworkedTraceStitching:
    def test_prover_spans_nest_under_session_attempt(self):
        result, dump = _networked_dump()
        assert result.report.accepted
        spans = span_records_from_jsonl(dump)
        assert trace_ids(spans) == [trace_id_from_nonce(result.report.nonce)]
        assert {r.session for r in spans if r.session} == {"verifier", "prv-net"}
        # Everything carrying the trace hangs off one session_attempt.
        forest = span_tree([r for r in spans if r.trace_id])
        assert len(forest) == 1
        attempt = forest[0]["span"]
        assert attempt.name == "session_attempt"
        prover = [r for r in spans if r.session == "prv-net"]
        assert {"prover_config", "prover_readback", "prover_checksum"} <= {
            r.name for r in prover
        }
        assert {r.parent_id for r in prover} == {attempt.span_id}

    def test_stitched_dump_is_seed_stable(self):
        _, first = _networked_dump(seed=60, device=SIM_SMALL)
        _, second = _networked_dump(seed=60, device=SIM_SMALL)
        assert first == second

    def test_prover_spans_carry_their_attempt_trace_id(self):
        """A retried session: each attempt's prover spans nest under that
        attempt's span and carry its trace id, not another attempt's."""
        result, dump = _networked_dump(
            seed=6, device=SIM_SMALL, kill_first_attempt=True
        )
        assert result.report.accepted and result.attempts == 2
        spans = span_records_from_jsonl(dump)
        attempts = {r.span_id: r for r in spans if r.name == "session_attempt"}
        assert len(attempts) == 2
        assert len({r.trace_id for r in attempts.values()}) == 2
        prover = [r for r in spans if r.session == "prv-net"]
        assert prover
        for record in prover:
            assert record.trace_id == attempts[record.parent_id].trace_id
        last = max(attempts.values(), key=lambda r: r.start_ns)
        assert last.trace_id == trace_id_from_nonce(result.report.nonce)
