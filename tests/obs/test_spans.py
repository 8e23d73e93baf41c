"""Span nesting, clocks, exception handling, and rendering."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import (
    current_span,
    render_span_tree,
    span,
    span_tree,
)
from repro.obs.trace import span_records_from_jsonl


class TestNesting:
    def test_children_point_at_parent(self, registry):
        with span("attestation") as root:
            with span("config") as child:
                assert child.parent_id == root.span_id
            with span("readback") as child:
                assert child.parent_id == root.span_id
        records = registry.spans
        assert [record.name for record in records] == [
            "config",
            "readback",
            "attestation",
        ]
        tree = span_tree(records)
        assert len(tree) == 1
        assert tree[0]["span"].name == "attestation"
        assert [node["span"].name for node in tree[0]["children"]] == [
            "config",
            "readback",
        ]

    def test_current_span_tracks_innermost(self, registry):
        assert current_span() is None
        with span("outer"):
            with span("inner") as inner:
                assert current_span() is inner
        assert current_span() is None

    def test_attributes_recorded(self, registry):
        with span("readback", frame=7) as active:
            active.set_attribute("bytes", 324)
        record = registry.spans[0]
        assert record.attributes == {"frame": 7, "bytes": 324}


class TestClockAndStatus:
    def test_clock_samples_start_and_end(self, registry):
        t = [100.0]
        with span("phase", clock=lambda: t[0]):
            t[0] = 350.0
        record = registry.spans[0]
        assert record.start_ns == 100.0
        assert record.end_ns == 350.0
        assert record.duration_ns == 250.0

    def test_exception_marks_error_and_reraises(self, registry):
        with pytest.raises(ValueError):
            with span("outer"):
                with span("inner"):
                    raise ValueError("boom")
        inner, outer = registry.spans
        assert inner.name == "inner" and inner.status == "error"
        assert "boom" in inner.error
        assert outer.status == "error"
        # The context stack unwound cleanly despite the exception.
        assert current_span() is None

    def test_yielded_span_is_the_stored_record(self, registry):
        t = [10.0]
        with span("phase", clock=lambda: t[0], frames=3) as active:
            active.set_attribute("result", "accept")
            t[0] = 15.0
            active.add_event("arq.send", seq=1)
            t[0] = 40.0
        (record,) = registry.spans
        assert record is active
        assert (record.start_ns, record.end_ns) == (10.0, 40.0)
        assert record.attributes == {"frames": 3, "result": "accept"}
        assert record.events == [{"name": "arq.send", "t_ns": 15.0, "seq": 1}]
        dump = json.dumps(record.to_dict()) + "\n"
        assert span_records_from_jsonl(dump) == [record]

    def test_disabled_registry_is_noop(self):
        disabled = MetricsRegistry(enabled=False)
        with span("phase", registry=disabled) as active:
            assert active is None
        assert disabled.spans == ()


class TestExportHelpers:
    def test_render_span_tree(self, registry):
        t = [0.0]
        with span("attestation", clock=lambda: t[0]):
            with span("config", clock=lambda: t[0], frames=24):
                t[0] = 1000.0
        rendered = render_span_tree(registry.spans)
        lines = rendered.splitlines()
        assert lines[0].startswith("attestation")
        assert lines[1].startswith("  config")
        assert "frames=24" in lines[1]
