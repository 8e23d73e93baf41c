"""Span profiling: breakdowns, critical paths, flamegraphs, ARQ timelines."""

from repro.obs.profile import (
    arq_timeline,
    critical_path,
    phase_breakdown,
    render_report,
    to_collapsed_stacks,
)
from repro.obs.spans import SpanRecord


def _rec(span_id, parent_id, name, start, end, session="", events=()):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        start_ns=float(start),
        end_ns=float(end),
        session=session,
        events=list(events),
    )


def _attempt_spans():
    """attestation(0..100) -> config(0..30), readback(30..90 -> frame x2)."""
    return [
        _rec(1, None, "attestation", 0, 100),
        _rec(2, 1, "config", 0, 30),
        _rec(3, 1, "readback", 30, 90),
        _rec(4, 3, "frame", 30, 50),
        _rec(5, 3, "frame", 50, 80),
    ]


class TestPhaseBreakdown:
    def test_self_and_child_time(self):
        rows = {row["name"]: row for row in phase_breakdown(_attempt_spans())}
        assert rows["attestation"]["total_ns"] == 100.0
        assert rows["attestation"]["self_ns"] == 10.0  # 100 - 30 - 60
        assert rows["attestation"]["child_ns"] == 90.0
        assert rows["frame"]["count"] == 2
        assert rows["frame"]["total_ns"] == 50.0
        assert rows["frame"]["self_ns"] == 50.0  # leaves keep everything
        assert rows["readback"]["self_ns"] == 10.0  # 60 - 50

    def test_sorted_by_descending_self_time(self):
        names = [row["name"] for row in phase_breakdown(_attempt_spans())]
        assert names == ["frame", "config", "attestation", "readback"]

    def test_overhanging_children_clamp_at_zero(self):
        spans = [_rec(1, None, "short", 0, 10), _rec(2, 1, "long", 0, 25)]
        rows = {row["name"]: row for row in phase_breakdown(spans)}
        assert rows["short"]["self_ns"] == 0.0

    def test_empty(self):
        assert phase_breakdown([]) == []


class TestCriticalPath:
    def test_descends_longest_children(self):
        path = [record.name for record in critical_path(_attempt_spans())]
        assert path == ["attestation", "readback", "frame"]
        # The chosen frame is the longer one (50..80).
        assert critical_path(_attempt_spans())[-1].start_ns == 50.0

    def test_longest_root_wins(self):
        spans = [
            _rec(1, None, "minor", 0, 10),
            _rec(2, None, "major", 5, 95),
        ]
        assert [r.name for r in critical_path(spans)] == ["major"]

    def test_duration_tie_breaks_on_start(self):
        spans = [
            _rec(1, None, "root", 0, 20),
            _rec(2, 1, "late", 10, 20),
            _rec(3, 1, "early", 0, 10),
        ]
        assert [r.name for r in critical_path(spans)] == ["root", "early"]

    def test_empty(self):
        assert critical_path([]) == []


class TestCollapsedStacks:
    def test_golden_output(self):
        assert to_collapsed_stacks(_attempt_spans()) == (
            "attestation 10\n"
            "attestation;config 30\n"
            "attestation;readback 10\n"
            "attestation;readback;frame 50\n"
        )

    def test_zero_weight_stacks_dropped(self):
        spans = [_rec(1, None, "parent", 0, 10), _rec(2, 1, "child", 0, 10)]
        assert to_collapsed_stacks(spans) == "parent;child 10\n"

    def test_byte_stable(self):
        spans = _attempt_spans()
        assert to_collapsed_stacks(spans) == to_collapsed_stacks(
            list(reversed(spans))
        )

    def test_speedscope_pairs_round_trip(self):
        pairs = []
        for line in to_collapsed_stacks(_attempt_spans()).splitlines():
            stack, _, weight = line.rpartition(" ")
            pairs.append((stack, int(weight)))
        assert ("attestation;readback;frame", 50) in pairs
        assert sum(weight for _, weight in pairs) == 100


class TestArqTimeline:
    def test_flattens_and_orders_events(self):
        spans = [
            _rec(
                1,
                None,
                "session_attempt",
                0,
                100,
                session="verifier",
                events=[
                    {"name": "arq.send", "t_ns": 40.0, "seq": 2},
                    {"name": "arq.send", "t_ns": 10.0, "seq": 1},
                    {"name": "note", "t_ns": 5.0},
                ],
            ),
            _rec(
                2,
                None,
                "prover_config",
                20,
                20,
                session="prv-0",
                events=[{"name": "arq.ack", "t_ns": 25.0, "seq": 1}],
            ),
        ]
        timeline = arq_timeline(spans)
        assert [event["name"] for event in timeline] == [
            "arq.send",
            "arq.ack",
            "arq.send",
        ]
        assert timeline[1]["session"] == "prv-0"
        assert timeline[1]["span"] == "prover_config"

    def test_no_arq_events(self):
        assert arq_timeline(_attempt_spans()) == []


class TestRenderReport:
    def test_sections_present(self):
        spans = [
            _rec(
                1,
                None,
                "session_attempt",
                0,
                100,
                session="verifier",
                events=[{"name": "arq.send", "t_ns": 1.0, "seq": 1}],
            )
        ]
        spans[0].attributes["attempt"] = 1
        record = SpanRecord(
            span_id=1,
            parent_id=None,
            name="session_attempt",
            start_ns=0.0,
            end_ns=100.0,
            trace_id="abc123",
            session="verifier",
            events=({"name": "arq.send", "t_ns": 1.0, "seq": 1},),
        )
        text = render_report([record])
        assert "Traces: abc123" in text
        assert "Span tree:" in text
        assert "Phase breakdown" in text
        assert "Critical path: session_attempt" in text
        assert "ARQ timeline (1 events):" in text
        assert "arq.send" in text
        assert text.endswith("\n")

    def test_byte_stable(self):
        spans = _attempt_spans()
        assert render_report(spans) == render_report(list(reversed(spans)))
