"""Tests for repro.util.tracing — including the paper-notation renderer."""

import pytest

from repro.util import tracing
from repro.util.tracing import NullTracer, TraceEvent, Tracer, format_trace


class TestTracer:
    def test_records_events(self):
        t = Tracer()
        t.record(tracing.EXPORT_MEMCPY, "F.p0", 1.0, timestamp=1.6)
        t.record(tracing.EXPORT_SKIP, "F.p1", 2.0, timestamp=2.6)
        assert len(t) == 2
        assert t.events[0].who == "F.p0"

    def test_filter_by_kind_and_who(self):
        t = Tracer()
        t.record(tracing.EXPORT_MEMCPY, "F.p0", 1.0, timestamp=1.0)
        t.record(tracing.EXPORT_MEMCPY, "F.p1", 1.0, timestamp=1.0)
        t.record(tracing.EXPORT_SKIP, "F.p0", 2.0, timestamp=2.0)
        assert len(t.filter(kind=tracing.EXPORT_MEMCPY)) == 2
        assert len(t.filter(who="F.p0")) == 2
        assert len(t.filter(kind=tracing.EXPORT_SKIP, who="F.p0")) == 1

    def test_predicate_drops_at_record_time(self):
        t = Tracer(predicate=lambda e: e.who == "F.p_s")
        t.record(tracing.EXPORT_MEMCPY, "F.p0", 1.0)
        t.record(tracing.EXPORT_MEMCPY, "F.p_s", 1.0)
        assert len(t) == 1

    def test_kinds(self):
        t = Tracer()
        t.record(tracing.EXPORT_MEMCPY, "a", 0.0)
        t.record(tracing.BUDDY_RECV, "a", 0.0, request=1.0, match=0.5)
        assert t.kinds() == {tracing.EXPORT_MEMCPY, tracing.BUDDY_RECV}

    def test_enabled_flag(self):
        assert Tracer().enabled is True
        assert NullTracer().enabled is False

    def test_null_tracer_drops_everything(self):
        t = NullTracer()
        t.record(tracing.EXPORT_MEMCPY, "a", 0.0)
        assert len(t) == 0


class TestKindRegistry:
    def test_unregistered_kind_rejected_at_record_time(self):
        t = Tracer()
        with pytest.raises(ValueError, match="unregistered trace kind"):
            t.record("export_memcpyy", "a", 0.0)  # the classic typo
        assert len(t) == 0

    def test_every_canonical_kind_has_a_renderer(self):
        # The render table must enumerate all kinds — including the
        # import-side and rep kinds — each with its own line.
        for kind in tracing.KNOWN_KINDS:
            e = TraceEvent(
                kind,
                "x",
                0.0,
                timestamp=1.0,
                detail={"request": 2.0, "answer": "YES", "match": 1.6},
            )
            out = e.render()
            assert kind not in out, f"{kind} has no paper-notation line"

    def test_null_tracer_validates_kinds(self):
        # The no-op default must still catch typo'd emission sites:
        # production runs on NullTracer, so a bogus kind that only
        # failed under Tracer would ship silently.
        with pytest.raises(ValueError, match="unregistered trace kind"):
            NullTracer().record("totally-bogus-kind", "a", 0.0)

    def test_null_tracer_accepts_valid_kinds_and_drops_them(self):
        t = NullTracer()
        t.record(tracing.EXPORT_SKIP, "a", 0.0, timestamp=1.0)
        assert len(t) == 0


class TestRendering:
    def test_export_memcpy(self):
        e = TraceEvent(tracing.EXPORT_MEMCPY, "F.p_s", 0.0, timestamp=1.6)
        assert e.render() == "export D@1.6, call memcpy."

    def test_export_skip(self):
        e = TraceEvent(tracing.EXPORT_SKIP, "F.p_s", 0.0, timestamp=15.6)
        assert e.render() == "export D@15.6, skip memcpy."

    def test_send(self):
        e = TraceEvent(tracing.EXPORT_SEND, "F.p_s", 0.0, timestamp=19.6)
        assert e.render() == "send D@19.6 out."

    def test_reply_pending(self):
        e = TraceEvent(
            tracing.REQUEST_REPLY,
            "F.p_s",
            0.0,
            detail={"request": 20.0, "answer": "PENDING", "latest": 14.6},
        )
        assert e.render() == "reply {D@20, PENDING, D@14.6}."

    def test_buddy_help(self):
        e = TraceEvent(
            tracing.BUDDY_RECV,
            "F.p_s",
            0.0,
            detail={"request": 20.0, "answer": "YES", "match": 19.6},
        )
        assert e.render() == "receive buddy-help {D@20, YES, D@19.6}."

    def test_remove_range(self):
        e = TraceEvent(
            tracing.BUFFER_REMOVE,
            "F.p_s",
            0.0,
            timestamp=14.6,
            detail={"low": 1.6, "high": 14.6},
        )
        assert e.render() == "remove D@1.6, ..., D@14.6."

    def test_remove_single(self):
        e = TraceEvent(tracing.BUFFER_REMOVE, "F.p_s", 0.0, timestamp=5.6)
        assert e.render() == "remove D@5.6."

    def test_import_request(self):
        e = TraceEvent(
            tracing.IMPORT_REQUEST, "U.p0", 0.0, detail={"request": 20.0}
        )
        assert e.render() == "request D@20."

    def test_import_complete(self):
        e = TraceEvent(tracing.IMPORT_COMPLETE, "U.p0", 0.0, timestamp=19.6)
        assert e.render() == "import D@19.6 complete."

    def test_rep_finalize(self):
        e = TraceEvent(
            tracing.REP_FINALIZE,
            "F.rep",
            0.0,
            detail={"request": 20.0, "answer": "MATCH"},
        )
        assert e.render() == "rep finalize {D@20, MATCH}."

    def test_custom_object_name(self):
        e = TraceEvent(tracing.EXPORT_MEMCPY, "x", 0.0, timestamp=1.0)
        assert "A@1" in e.render(object_name="A")

    def test_format_trace_numbered(self):
        events = [
            TraceEvent(tracing.EXPORT_MEMCPY, "x", 0.0, timestamp=1.6),
            TraceEvent(tracing.EXPORT_SKIP, "x", 1.0, timestamp=2.6),
        ]
        out = format_trace(events)
        lines = out.splitlines()
        assert lines[0].startswith("  1  ")
        assert lines[1].startswith("  2  ")

    def test_format_trace_unnumbered(self):
        events = [TraceEvent(tracing.EXPORT_MEMCPY, "x", 0.0, timestamp=1.6)]
        assert format_trace(events, numbered=False) == "export D@1.6, call memcpy."
