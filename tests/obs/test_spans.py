"""Unit + integration tests for repro.obs.spans."""

import pytest

import repro
from repro.core.coupler import RegionDef
from repro.data.decomposition import BlockDecomposition
from repro.obs.spans import Span, SpanRecorder, Timeline, TimelineSet, build_timelines


def _live_result() -> repro.RunResult:
    """A small run of the threaded runtime (plain-callable mains)."""

    def f_main(ctx):
        for k in range(6):
            ctx.export("d", 1.0 + k)
            ctx.compute(1e-3)

    def u_main(ctx):
        for want in (2.0, 4.0):
            ctx.import_("d", want)

    return repro.run(
        "F c0 /bin/F 2\nU c1 /bin/U 2\n#\nF.d U.d REGL 2.5\n",
        [
            repro.Program(
                "F", main=f_main,
                regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))},
            ),
            repro.Program(
                "U", main=u_main,
                regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))},
            ),
        ],
        repro.RunOptions(runtime="live", time_scale=0.01),
    )


class TestSpan:
    def test_duration_and_dict(self):
        s = Span(name="export:SEND", who="F.p0", start=1.0, end=2.5, args={"ts": 3.0})
        assert s.duration == 1.5
        d = s.as_dict()
        assert d["name"] == "export:SEND"
        assert d["args"] == {"ts": 3.0}

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            Span(name="x", who="a", start=2.0, end=1.0)


class TestTimeline:
    def test_busy_time_and_sort(self):
        tl = Timeline(who="F.p0")
        tl.spans.append(Span(name="b", who="F.p0", start=5.0, end=6.0))
        tl.spans.append(Span(name="a", who="F.p0", start=1.0, end=3.0))
        tl.sort()
        assert [s.name for s in tl.spans] == ["a", "b"]
        assert tl.busy_time == pytest.approx(3.0)

    def test_set_creates_on_demand(self):
        ts = TimelineSet()
        ts.timeline("F.p0").spans.append(Span(name="x", who="F.p0", start=0, end=1))
        assert ts.whos() == ["F.p0"]
        assert ts.span_count() == 1
        assert ts.timeline("F.p0") is ts.timeline("F.p0")


class TestSpanRecorder:
    def test_begin_end_pairs_lifo(self):
        r = SpanRecorder()
        r.begin("phase", "F.p0", 1.0)
        r.begin("phase", "F.p0", 2.0)
        inner = r.end("phase", "F.p0", 3.0)
        outer = r.end("phase", "F.p0", 4.0)
        assert (inner.start, inner.end) == (2.0, 3.0)
        assert (outer.start, outer.end) == (1.0, 4.0)
        assert r.open_spans() == []

    def test_end_without_begin_raises(self):
        r = SpanRecorder()
        with pytest.raises(ValueError):
            r.end("phase", "F.p0", 1.0)

    def test_open_spans_reported(self):
        r = SpanRecorder()
        r.begin("phase", "F.p0", 1.0)
        assert r.open_spans() == [("phase", "F.p0")]

    def test_flush_open_closes_and_annotates(self):
        r = SpanRecorder()
        r.begin("solve", "F.p0", 1.0, step=3)
        r.begin("io", "F.p1", 2.5)
        flushed = r.flush_open(4.0)
        assert r.open_spans() == []
        assert {(s.name, s.who, s.start, s.end) for s in flushed} == {
            ("solve", "F.p0", 1.0, 4.0),
            ("io", "F.p1", 2.5, 4.0),
        }
        assert all(s.args["unclosed"] is True for s in flushed)
        # begin-time args survive the flush.
        solve = next(s for s in flushed if s.name == "solve")
        assert solve.args["step"] == 3

    def test_flush_open_never_goes_backwards(self):
        r = SpanRecorder()
        r.begin("late", "F.p0", 5.0)
        (span,) = r.flush_open(3.0)  # flush time before the begin
        assert span.start == span.end == 5.0


class TestBuildTimelines:
    def test_export_import_spans_from_run(self, demo_result):
        # Both runtimes keep the same records, so both yield the spans.
        for sim in (demo_result.simulation, _live_result().simulation):
            tls = build_timelines(sim)
            names = {s.name for s in tls.all_spans()}
            # Export decisions and both import phases must appear.
            assert any(n.startswith("export:") for n in names)
            assert "import:wait" in names
            assert "import:transfer" in names
            # Every exporter rank got a timeline.
            assert {"F.p0", "F.p1"} <= set(tls.whos())

    def test_tracer_events_become_instants(self, demo_result):
        tls = build_timelines(demo_result.simulation, tracer=demo_result.tracer)
        assert tls.event_count() == len(demo_result.tracer.events)

    def test_facade_timeline_is_cached(self, demo_result):
        assert demo_result.timeline is demo_result.timeline
        assert demo_result.timeline.span_count() > 0

    def test_spans_are_well_formed(self, demo_result):
        for span in demo_result.timeline.all_spans():
            assert span.end >= span.start >= 0.0
            assert span.who

    def test_unclosed_user_spans_flush_at_run_end(self, demo_result):
        rec = SpanRecorder()
        rec.add("solve", "F.p0", 0.0, 0.05)
        rec.begin("crashed-phase", "F.p1", 0.01)
        tls = build_timelines(demo_result.simulation, recorder=rec)
        assert rec.open_spans() == []
        flushed = [
            s for s in tls.all_spans() if s.name == "crashed-phase"
        ]
        assert len(flushed) == 1
        end_time = float(demo_result.simulation.sim.now)
        assert flushed[0].end == end_time
        assert flushed[0].args == {"unclosed": True}
        # The explicitly closed span rides along unannotated.
        solve = next(s for s in tls.all_spans() if s.name == "solve")
        assert "unclosed" not in solve.args
