"""Streaming telemetry: sinks, snapshots, OpenMetrics exposition.

Covers the :class:`TelemetrySink` protocol, both shipped sinks against
real DES and live runs (periodic snapshots plus the mandatory final
one), and the in-repo OpenMetrics validator that CI points at the
exposition file.
"""

from __future__ import annotations

import dataclasses
import json
import random

import pytest

import repro
from repro import Program, RunOptions, run
from repro.core.coupler import RegionDef
from repro.data.decomposition import BlockDecomposition
import repro.obs.stream as stream_mod
from repro.obs.stream import (
    SCHEMA,
    ExpositionBuilder,
    JsonlSink,
    JsonlTail,
    OpenMetricsSink,
    TelemetrySink,
    build_snapshot,
    emit_snapshot,
    escape_label_value,
    render_openmetrics,
    validate_openmetrics,
)


class RecordingSink:
    """Minimal structural TelemetrySink: keeps every record."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.closed = False

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


class TestProtocolAndSnapshot:
    def test_sinks_satisfy_protocol(self, tmp_path):
        assert isinstance(RecordingSink(), TelemetrySink)
        assert isinstance(JsonlSink(tmp_path / "t.jsonl"), TelemetrySink)
        assert isinstance(OpenMetricsSink(tmp_path / "t.om"), TelemetrySink)
        assert not isinstance(object(), TelemetrySink)

    def test_snapshot_of_finished_run(self, causal_result):
        rec = build_snapshot(causal_result.simulation, final=True)
        assert rec["schema"] == SCHEMA
        assert rec["final"] is True
        assert set(rec["programs"]) == {"F", "U"}
        assert rec["totals"]["pending_imports"] == 0
        assert rec["totals"]["buddy_skips"] == 4
        assert rec["programs"]["F"]["exports"] == 92  # 46 steps x 2 ranks
        assert rec["programs"]["U"]["imports_completed"] == 4
        assert rec["programs"]["F"]["last_export_ts"] == pytest.approx(46.6)

    def test_emit_snapshot_fans_out(self, causal_result):
        a, b = RecordingSink(), RecordingSink()
        rec = emit_snapshot(causal_result.simulation, (a, b), final=True)
        assert a.records == [rec] and b.records == [rec]


class RecountingSink:
    """Checks each snapshot's import counts against a scan of the records.

    ``build_snapshot`` reads running tallies; this recounts them the
    slow way, from every ``ImportRecord``, at every tick.
    """

    def __init__(self) -> None:
        self.sim = None
        self.ticks: list[tuple[int, int]] = []
        self.finals: list[bool] = []

    def emit(self, record: dict) -> None:
        pending = completed = 0
        for name, prog in self.sim._programs.items():
            states = [
                ist for ctx in prog.contexts for ist in ctx.import_states.values()
            ]
            recs = [rec for ist in states for rec in ist.records]
            open_ = sum(rec.completed_at is None for rec in recs)
            entry = record["programs"][name]
            assert entry["pending_imports"] == open_
            assert entry["imports_completed"] == len(recs) - open_
            kinds = [str(rec.answer.kind) for rec in recs if rec.answer is not None]
            assert sum(ist.match_count for ist in states) == kinds.count("MATCH")
            assert sum(ist.no_match_count for ist in states) == kinds.count("NO_MATCH")
            pending += open_
            completed += len(recs) - open_
        assert record["totals"]["pending_imports"] == pending
        self.ticks.append((pending, completed))
        self.finals.append(record["final"])

    def close(self) -> None:
        pass


class TestDesStreaming:
    def test_snapshot_counts_equal_a_recount_at_every_tick(self):
        from repro.api.facade import build
        from repro.scenarios import build as build_scenario

        sink = RecountingSink()
        b = build_scenario("demo", {"seed": 3})
        options = dataclasses.replace(
            b.options, telemetry_sinks=(sink,), telemetry_interval=0.002
        )
        sink.sim = build(b.config, b.programs, options)
        # Wired, then driven by the kernel itself: the last main's exit
        # still writes the one final snapshot, last.
        sink.sim.start()
        sink.sim.sim.run()
        assert len(sink.ticks) > 10
        # The run was watched mid-flight: open and finished imports at once.
        assert any(p and c for p, c in sink.ticks)
        assert sink.ticks[-1][0] == 0
        assert sink.finals == [False] * (len(sink.finals) - 1) + [True]
        # No tick held the clock: the run ends where it does unwatched.
        assert sink.sim.sim.now == b.run().sim_time

    def test_jsonl_sink_records_periodic_and_final(self, tmp_path, demo_runner):
        path = tmp_path / "tele.jsonl"
        sink = JsonlSink(path)
        demo_runner(
            with_tracer=False,
            telemetry_sinks=(sink,),
            telemetry_interval=0.05,
        )
        lines = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert len(lines) == sink.records >= 2
        assert all(rec["schema"] == SCHEMA for rec in lines)
        # Exactly one final snapshot, and it is the last line.
        assert [rec["final"] for rec in lines].count(True) == 1
        assert lines[-1]["final"] is True
        assert lines[-1]["totals"]["pending_imports"] == 0
        # Time and counters are monotonic across snapshots.
        times = [rec["time"] for rec in lines]
        assert times == sorted(times)
        exports = [rec["programs"]["F"]["exports"] for rec in lines]
        assert exports == sorted(exports)

    def test_openmetrics_sink_validates(self, tmp_path, demo_runner):
        path = tmp_path / "tele.om"
        sink = OpenMetricsSink(path)
        demo_runner(
            with_tracer=False,
            telemetry_sinks=[sink],  # lists are coerced by RunOptions
            telemetry_interval=0.05,
        )
        text = path.read_text()
        assert validate_openmetrics(text) == []
        assert text.endswith("# EOF\n")
        assert "repro_buddy_skips_total 4" in text
        assert 'repro_exports_total{program="F"} 92' in text
        assert "repro_run_final 1" in text
        assert sink.records >= 2 and sink.last is not None

    def test_a_run_without_mains_still_ends_its_stream(self):
        # No main ever exits, so the final snapshot is written at setup.
        sink = RecordingSink()
        regions = {"d": RegionDef(BlockDecomposition((16, 16), (1, 1)))}
        result = run(
            "F c0 /bin/F 1\nU c1 /bin/U 1\n#\nF.d U.d REGL 2.5\n",
            [Program("F", regions=regions), Program("U", regions=regions)],
            RunOptions(telemetry_sinks=(sink,)),
        )
        assert [rec["final"] for rec in sink.records] == [True]
        assert result.sim_time == 0.0 and sink.closed

    def test_no_sinks_means_no_telemetry_process(self, demo_result):
        # The opt-out default: nothing registered, no tick, nothing emitted.
        assert demo_result.simulation.telemetry_sinks == ()
        assert demo_result.simulation.sim._tick is None


class TestTeardownOnCrash:
    """Sinks are flushed and closed even when the run itself raises."""

    def _crashing_run(self, sinks: tuple) -> None:
        def f_main(ctx):
            for k in range(46):
                yield from ctx.export("d", 1.6 + k)
                if k == 10:
                    raise RuntimeError("mid-run crash")
                yield from ctx.compute(0.001)

        def u_main(ctx):
            for want in (20.0, 40.0):
                yield from ctx.import_("d", want)

        run(
            "F c0 /bin/F 2\nU c1 /bin/U 2\n#\nF.d U.d REGL 2.5\n",
            [
                Program(
                    "F",
                    main=f_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))},
                ),
                Program(
                    "U",
                    main=u_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))},
                ),
            ],
            RunOptions(
                seed=2,
                telemetry_sinks=sinks,
                telemetry_interval=0.05,
            ),
        )

    def test_jsonl_sink_flushed_and_closed_when_run_raises(self, tmp_path):
        path = tmp_path / "crash.jsonl"
        sink = JsonlSink(path)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            self._crashing_run((sink,))
        assert sink._fh.closed  # teardown really closed the handle
        lines = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert lines, "nothing was flushed before the crash"
        last = lines[-1]
        assert last["final"] is True and last["aborted"] is True
        assert "RuntimeError: mid-run crash" in last["error"]
        # Exactly one final record, and only the aborted one carries it.
        assert [rec.get("aborted", False) for rec in lines].count(True) == 1

    def test_recording_sink_sees_abort_and_close(self):
        sink = RecordingSink()
        with pytest.raises(RuntimeError, match="mid-run crash"):
            self._crashing_run((sink,))
        assert sink.closed
        assert sink.records[-1]["aborted"] is True

    def test_successful_run_closes_sinks_without_abort(self, demo_runner):
        sink = RecordingSink()
        demo_runner(with_tracer=False, telemetry_sinks=(sink,))
        assert sink.closed
        assert "aborted" not in sink.records[-1]
        assert sink.records[-1]["final"] is True


class TestLiveStreaming:
    def test_live_run_streams_and_traces(self, tmp_path):
        config = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"

        def e_main(ctx):
            for k in range(6):
                ctx.export("d", 1.0 + k)
                ctx.compute(1e-3)

        def i_main(ctx):
            for j in range(1, 4):
                ctx.compute(5e-4)
                ctx.import_("d", 2.0 * j)

        path = tmp_path / "live.jsonl"
        sink = JsonlSink(path)
        result = run(
            config,
            [
                Program(
                    "E",
                    main=e_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))},
                ),
                Program(
                    "I",
                    main=i_main,
                    regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))},
                ),
            ],
            RunOptions(
                runtime="live",
                time_scale=0.01,
                causal_trace=True,
                telemetry_sinks=(sink,),
                telemetry_interval=0.02,
            ),
        )
        lines = [
            json.loads(line) for line in path.read_text().splitlines() if line
        ]
        assert lines and lines[-1]["final"] is True
        assert lines[-1]["totals"]["pending_imports"] == 0
        assert lines[-1]["programs"]["I"]["imports_completed"] == 6
        # Causal tracing works on the threaded runtime too: every
        # resolution carries the full chain and exact stage sums.
        report = result.causal
        assert len(report.resolutions) == 6
        for r in report.resolutions:
            # A rank whose request hit an already-aggregated answer
            # roots its (clipped) path mid-protocol; the others walk
            # all the way back to their own request span.
            assert r.chain[-1] == "complete"
            assert "answer" in r.chain
            assert sum(r.stages.values()) == pytest.approx(r.latency, abs=1e-9)
        assert any(r.chain[0] == "request" for r in report.resolutions)


class TestJsonlTail:
    """The reader ``repro monitor`` follows a stream with."""

    @pytest.mark.parametrize("name", ["tele.jsonl", "tele.jsonl.gz"])
    def test_a_stream_grown_byte_chunk_by_chunk_reads_once_in_order(self, tmp_path, name):
        full = tmp_path / ("full-" + name)
        records = [{"time": float(i), "final": i == 1999} for i in range(2000)]
        for part in (records[:1200], records[1200:]):  # two sinks: two gzip members
            sink = JsonlSink(str(full))
            for rec in part:
                sink.emit(rec)
            sink.close()
        data = full.read_bytes()
        grown = tmp_path / name
        tail = JsonlTail(grown)
        assert tail.poll() == []  # not written yet
        rng = random.Random(7)
        got, at = [], 0
        with open(grown, "wb") as fh:
            while at < len(data):
                # Cuts land anywhere: in a header, a flushed block, a line.
                step = rng.choice((1, 3, 17, 250, 4096))
                fh.write(data[at : at + step])
                fh.flush()
                at += step
                new = tail.poll()
                assert new == records[len(got) : len(got) + len(new)]
                got += new
        tail.close()
        assert got == records

    def test_a_finished_stream_reads_its_last_line_without_a_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"time": 1.0}\n\nnot json\n{"time": 2.0}')
        tail = JsonlTail(path)
        assert tail.poll() == [{"time": 1.0}]  # the last line may still grow
        assert tail.poll(final=True) == [{"time": 2.0}]
        tail.close()


class TestOpenMetricsValidator:
    def good(self) -> str:
        rec = {
            "schema": SCHEMA,
            "time": 1.5,
            "final": False,
            "programs": {
                "F": {
                    "ranks": 2,
                    "alive": 2,
                    "last_export_ts": 4.6,
                    "exports": 10,
                    "pending_imports": 1,
                    "imports_completed": 0,
                    "buddy_skips": 0,
                    "t_ub": 0.0,
                    "compute_time": 0.01,
                }
            },
            "totals": {
                "pending_imports": 1,
                "buddy_skips": 0,
                "t_ub": 0.0,
                "ctl_messages": 5,
                "ctl_bytes": 320,
                "data_messages": 0,
                "data_bytes": 0,
                "retransmissions": 0,
                "dup_discards": 0,
            },
        }
        return render_openmetrics(rec)

    def test_rendered_exposition_is_clean(self):
        text = self.good()
        assert validate_openmetrics(text) == []
        assert "# TYPE repro_pending_imports gauge" in text
        assert 'repro_alive_processes{program="F"} 2' in text

    def test_missing_eof_is_flagged(self):
        text = self.good().replace("# EOF\n", "")
        assert any("EOF" in p for p in validate_openmetrics(text))

    def test_counter_sample_needs_total_suffix(self):
        text = self.good().replace(
            "repro_ctl_messages_total 5", "repro_ctl_messages 5"
        )
        assert validate_openmetrics(text) != []

    def test_unknown_type_and_bad_value_are_flagged(self):
        bad = "# TYPE foo sometype\nfoo 1\n# EOF\n"
        assert any("sometype" in p for p in validate_openmetrics(bad))
        bad = "# TYPE foo gauge\nfoo notanumber\n# EOF\n"
        assert validate_openmetrics(bad) != []

    def test_sample_before_type_is_flagged(self):
        bad = "foo_total 1\n# TYPE foo counter\n# EOF\n"
        assert validate_openmetrics(bad) != []

    def test_interleaved_families_are_flagged(self):
        # Two families opened, then their samples mixed by label: the
        # shape the fleet exposition used to write.
        bad = (
            "# TYPE a counter\n# HELP a a\n# TYPE b gauge\n# HELP b b\n"
            'a_total{s="x"} 1\nb{s="x"} 2\na_total{s="y"} 3\n# EOF\n'
        )
        problems = validate_openmetrics(bad)
        assert [p.split(":")[0] for p in problems] == ["line 5", "line 7"]
        assert all("interleaved" in p for p in problems)

    def test_builder_groups_samples_under_their_family(self):
        out = ExpositionBuilder()
        out.family("a", "counter", "a")
        out.family("b", "gauge", "b")
        for s in ("x", "y"):
            out.sample("a", "counter", {"s": s}, 1)
            out.sample("b", "gauge", {"s": s}, 2)
        text = out.render()
        assert validate_openmetrics(text) == []
        assert text.splitlines()[:4] == [
            "# TYPE a counter", "# HELP a a", 'a_total{s="x"} 1', 'a_total{s="y"} 1',
        ]

    def test_render_is_byte_identical_to_a_linear_builder(self, monkeypatch):
        # A telemetry record opens each family and writes its samples
        # straight away, so grouping changes nothing for it.
        class Linear:
            """The builder as it was: lines appended in call order."""

            def __init__(self) -> None:
                self.lines: list[str] = []

            def family(self, name, mtype, help_text):
                self.lines += [f"# TYPE {name} {mtype}", f"# HELP {name} {help_text}"]

            def sample(self, name, mtype, labels, value):
                one = ExpositionBuilder()
                one.family(name, mtype, "")
                one.sample(name, mtype, labels, value)
                self.lines.append(one.render().splitlines()[2])

            def render(self):
                return "\n".join([*self.lines, "# EOF"]) + "\n"

        grouped = self.good()
        monkeypatch.setattr(stream_mod, "ExpositionBuilder", Linear)
        assert self.good() == grouped


class TestLabelEscaping:
    """PR-10 regression suite: adversarial label values must round-trip."""

    ADVERSARIAL = [
        'plain',
        'back\\slash',
        'quo"te',
        'new\nline',
        'all\\three" at\nonce',
        'trailing backslash\\',
        'comma,brace}equals=',
        '',
    ]

    def test_escape_label_value(self):
        assert escape_label_value('a\\b') == 'a\\\\b'
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value('a\nb') == 'a\\nb'

    @pytest.mark.parametrize("value", ADVERSARIAL)
    def test_adversarial_values_render_clean(self, value):
        out = ExpositionBuilder()
        out.family("demo_metric", "gauge", "adversarial labels")
        out.sample("demo_metric", "gauge", {"path": value, "ok": "1"}, 2.5)
        text = out.render()
        assert validate_openmetrics(text) == []
        # Exactly one sample line, whatever the label value contains.
        samples = [
            line for line in text.splitlines() if line.startswith("demo_metric{")
        ]
        assert len(samples) == 1

    def test_program_name_with_quote_validates(self):
        # The original bug shape: a program label containing a quote
        # produced an unparseable exposition.
        rec = {
            "schema": SCHEMA,
            "time": 0.5,
            "final": True,
            "programs": {
                'F"U\\': {
                    "ranks": 1, "alive": 1, "last_export_ts": None,
                    "exports": 1, "pending_imports": 0,
                    "imports_completed": 1, "buddy_skips": 0,
                    "t_ub": 0.0, "compute_time": 0.0,
                }
            },
            "totals": {
                "pending_imports": 0, "buddy_skips": 0, "t_ub": 0.0,
                "ctl_messages": 1, "ctl_bytes": 8,
                "data_messages": 0, "data_bytes": 0,
                "retransmissions": 0, "dup_discards": 0,
            },
        }
        text = render_openmetrics(rec)
        assert validate_openmetrics(text) == []
        assert '\\"' in text

    def test_invalid_escape_is_flagged(self):
        bad = '# TYPE foo gauge\nfoo{x="a\\qb"} 1\n# EOF\n'
        assert any("invalid escape" in p for p in validate_openmetrics(bad))

    def test_unterminated_label_value_is_flagged(self):
        bad = '# TYPE foo gauge\nfoo{x="a} 1\n# EOF\n'
        assert validate_openmetrics(bad) != []

    def test_duplicate_label_names_are_flagged(self):
        bad = '# TYPE foo gauge\nfoo{x="1",x="2"} 1\n# EOF\n'
        assert any("duplicate" in p for p in validate_openmetrics(bad))

    def test_bad_label_name_is_flagged(self):
        bad = '# TYPE foo gauge\nfoo{9x="1"} 1\n# EOF\n'
        assert validate_openmetrics(bad) != []

    def test_counter_sample_via_builder_gets_total_suffix(self):
        out = ExpositionBuilder()
        out.family("hits", "counter", "hits")
        out.sample("hits", "counter", {"q": 'a"b'}, 3)
        text = out.render()
        assert validate_openmetrics(text) == []
        assert "hits_total{" in text
