"""Tests for the Figure-4 experiment builder (small-scale runs).

Full-size (1001-export, 6-run) executions live in ``benchmarks/``; here
we verify the builder and the qualitative regimes at reduced size.
"""

import sys
import types
from dataclasses import replace

import pytest

from repro.bench.figure4 import (
    Figure4Spec,
    build_figure4_simulation,
    figure4_rows,
    optimal_iteration_of,
    spec_for_subfigure,
)
from repro.bench.reporting import mean_series, summarize_runs
from repro.core.exporter import ExportDecision
from repro.core.protocol import ProtocolDriver
from repro.des.channel import Network
from repro.util.stats import SeriesSummary
from repro.util.validation import ValidationError


def small(u_procs, **kw):
    defaults = dict(u_procs=u_procs, exports=161, runs=2, jitter=0.0)
    defaults.update(kw)
    return Figure4Spec(**defaults)


def first_p_s(spec):
    """``p_s`` of the spec's first run (seed ``spec.seed * 1000``)."""
    return figure4_rows(replace(spec, runs=1))[0]["p_s"]


class TestSpec:
    def test_paper_defaults(self):
        spec = Figure4Spec()
        assert spec.exports == 1001
        assert spec.tolerance == 2.5
        assert spec.request_period == 20.0
        assert spec.f_procs == 4
        assert spec.runs == 6

    def test_n_requests_one_in_twenty(self):
        spec = Figure4Spec(exports=1001)
        assert spec.n_requests == 50  # "one out of every twenty"

    def test_subfigure_mapping(self):
        assert spec_for_subfigure("a").u_procs == 4
        assert spec_for_subfigure("b").u_procs == 8
        assert spec_for_subfigure("c").u_procs == 16
        assert spec_for_subfigure("D").u_procs == 32

    def test_elements_per_process(self):
        spec = Figure4Spec(u_procs=16)
        assert spec.f_elements() == 512 * 512
        assert spec.u_elements() == 1024 * 1024 // 16

    def test_jitter_above_one_refused_before_any_run(self):
        # Used to surface as "delay must be >= 0" inside Simulator.timeout
        # once a draw made a cost negative.
        spec = Figure4Spec(jitter=1.5)
        with pytest.raises(ValidationError, match="jitter must be <= 1"):
            spec.preset()
        with pytest.raises(ValidationError, match="jitter must be <= 1"):
            spec.scenario()

    def test_preset_magnitudes(self):
        p = Figure4Spec().preset()
        memcpy = p.memory.memcpy_time(512 * 512 * 8, now=1e9)
        assert 1.0e-3 < memcpy < 2.0e-3


class TestBuilder:
    def test_builds_and_runs(self):
        cs = build_figure4_simulation(small(4, exports=41))
        cs.run()
        series = cs.export_series("F", 3)
        assert len(series) == 41

    def test_slow_rank_is_last(self):
        spec = small(4, exports=41)
        cs = build_figure4_simulation(spec)
        cs.run()
        slow_time = cs.context("F", spec.slow_rank).stats.compute_time
        fast_time = cs.context("F", 0).stats.compute_time
        assert slow_time > 1.5 * fast_time


class TestRegimes:
    def test_importer_slower_all_buffered(self):
        ps = first_p_s(small(4))
        assert ps["decisions"].get("skip", 0) == 0
        assert ps["decisions"]["buffer"] + ps["decisions"].get("send", 0) == 161
        assert ps["optimal_iteration"] is None
        assert ps["skip_fraction"] == 0.0

    def test_importer_faster_skips_dominate(self):
        ps = first_p_s(small(32))
        assert ps["skip_fraction"] > 0.5
        assert ps["optimal_iteration"] is not None
        assert ps["optimal_iteration"] < 60

    def test_u16_between(self):
        skips = [first_p_s(small(u))["skip_fraction"] for u in (4, 16, 32)]
        assert skips[0] < skips[1] < skips[2]

    def test_buddy_ablation(self):
        (on,) = figure4_rows(small(32, runs=1, buddy_help=True))
        (off,) = figure4_rows(small(32, runs=1, buddy_help=False))
        assert on["metrics"]["paper"]["buddy_helps_sent"] > 0
        assert off["metrics"]["paper"]["buddy_helps_sent"] == 0
        assert on["p_s"]["skip_fraction"] > off["p_s"]["skip_fraction"]
        assert on["p_s"]["t_ub"] <= off["p_s"]["t_ub"]
        assert on["p_s"]["unnecessary_total"] < off["p_s"]["unnecessary_total"]
        # The paper's Figure-6 claim: optimal state only with buddy-help.
        assert on["p_s"]["optimal_iteration"] is not None

    def test_sends_match_one_in_twenty(self):
        ps = first_p_s(small(32))
        assert ps["decisions"].get("send", 0) == small(32).n_requests

    def test_init_head_elevated_when_flat(self):
        s = SeriesSummary.from_series(first_p_s(small(4))["series"])
        assert s.head_mean > s.body_mean  # the ~8% init surcharge


class TestMultiRun:
    def test_figure4_rows_aggregate(self):
        spec = small(4, exports=61, runs=3, jitter=0.01)
        rows = figure4_rows(spec)
        assert len(rows) == 3
        series = [row["p_s"]["series"] for row in rows]
        mean = mean_series(series)
        assert len(mean) == 61
        # jitter means runs differ, but only slightly
        assert series[0] != series[1]
        assert summarize_runs(series).count == 61

    def test_runs_with_same_index_reproducible(self):
        # Run i is seeded spec.seed * 1000 + i, whatever spec.runs is.
        spec = small(4, exports=41, jitter=0.02)
        a = figure4_rows(replace(spec, runs=2))[1]["p_s"]
        b = figure4_rows(replace(spec, runs=3))[1]["p_s"]
        assert a["series"] == b["series"]

    def test_rows_are_repro_run_rows(self, capsys):
        """Run i of a spec is the ``repro run fig4`` cell seeded
        ``spec.seed * 1000 + i``: the same row, key for key, but its name."""
        import json

        from repro.cli import main

        (row,) = figure4_rows(Figure4Spec(u_procs=16, exports=61, seed=7, runs=1))
        assert main(["run", "fig4", "-p", "u_procs=16", "-p", "exports=61",
                     "-p", "seed=7000", "--json"]) == 0
        (cell,) = json.loads(capsys.readouterr().out)["runs"]
        got = json.loads(json.dumps(row))
        for key in ("name", "scenario", "params", "fault_plan"):
            cell.pop(key)
        got.pop("name")
        assert got == cell


class TestOptimalIterationOf:
    class R:
        def __init__(self, d, ts):
            self.decision = d
            self.ts = ts

    def test_tail_after_last_buffer(self):
        recs = (
            [self.R(ExportDecision.BUFFER, float(t)) for t in range(5)]
            + [self.R(ExportDecision.SKIP, 5.0 + k) for k in range(5)]
        )
        assert optimal_iteration_of(recs) == 5

    def test_never_reached(self):
        recs = [self.R(ExportDecision.BUFFER, float(t)) for t in range(5)]
        assert optimal_iteration_of(recs) is None

    def test_cutoff_excludes_trailing_unskippable(self):
        recs = (
            [self.R(ExportDecision.SKIP, float(t)) for t in range(5)]
            + [self.R(ExportDecision.BUFFER, 99.0)]
        )
        assert optimal_iteration_of(recs, cutoff_ts=50.0) == 0
        assert optimal_iteration_of(recs, cutoff_ts=None) is None

    def test_empty(self):
        assert optimal_iteration_of([]) is None


class TestExportPathCost:
    """A count, not a timing: Python calls per dispatched DES event.

    The per-export path (``ProcessContext.export`` -> ``on_export`` /
    ``collect_evictions`` -> ``BufferManager`` -> cost models) is where
    a Figure-4 run spends its time.  Wall time cannot be asserted in a
    unit test; the number of calls the interpreter makes can — it
    repeats to within a few dozen calls and moves only when the path
    itself grows.
    """

    #: 7% above the measured 22.4: 21.95 plus the one Python frame each
    #: jitter draw costs since streams serve blocks (the Cython
    #: ``Generator.uniform`` it replaced was not counted); 27.8 before
    #: timeouts became one call and per-event records tuples; the
    #: scan-everything path this guards against measured 49.3 on the
    #: same four runs.
    CEILING = 24.0

    def test_calls_per_event_stay_under_the_ceiling(self):
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        events = 0
        for sub in "abcd":
            cs = build_figure4_simulation(spec_for_subfigure(sub, exports=121))
            cs.start()  # wiring (and its process-wide schedule cache) not counted
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                cs.sim.run()
            finally:
                sys.setprofile(previous)
            events += cs.sim.kernel_counters()["dispatched"]
        assert events == 9901
        assert calls / events < self.CEILING, (
            f"{calls} calls for {events} events = {calls / events:.1f} per event: "
            "the per-export path grew (see docs/architecture.md, Hot-path engineering)"
        )


class TestMessagePathCost:
    """A count, not a timing: Python calls per wire message.

    Counted from ``ProtocolDriver._net_send`` (stamp, count, hand to
    the port) through ``Network.send`` and, when the transfer delay
    has passed, its delivery callback (envelope into the mailbox, a
    parked receiver woken) — everything a message costs before the
    receiving process runs.
    """

    #: ≈10% above the measured 22.5 (35.0 before the send path lost its
    #: attribute probes, null-context pair and per-message formatting).
    CEILING = 25.0

    def test_calls_per_message_stay_under_the_ceiling(self):
        entries = {
            ProtocolDriver._net_send.__code__,
            next(
                c
                for c in Network.send.__code__.co_consts
                if isinstance(c, types.CodeType) and c.co_name == "_deliver"
            ),
        }
        calls = 0
        depth = 0  # Python frames open inside the message path

        def count(frame, event, arg):
            nonlocal calls, depth
            if event == "call":
                if depth or frame.f_code in entries:
                    depth += 1
                    calls += 1
            elif event == "return":
                if depth:
                    depth -= 1
            elif event == "c_call" and depth:
                calls += 1

        messages = 0
        for sub in "abcd":
            cs = build_figure4_simulation(spec_for_subfigure(sub, exports=121))
            cs.start()
            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                cs.sim.run()
            finally:
                sys.setprofile(previous)
            messages += cs.world.network.messages_sent
        assert messages == 1770
        assert calls / messages < self.CEILING, (
            f"{calls} calls for {messages} messages = {calls / messages:.1f} per "
            "message: the send path grew (see docs/architecture.md, Hot-path "
            "engineering)"
        )
