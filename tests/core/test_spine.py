"""The event spine: one announcement per decision, four folds over it.

The ``demo`` scenario is run with every consumer on — provenance log,
causal trace, a paper-notation ``Tracer`` and the Property-1 operation
log — and the folds are checked against each other: they saw the same
events, so a decision one of them recorded is recorded by every fold
that reads its kind, with the same connection, request and time.
"""

import sys
from collections import Counter
from dataclasses import replace

import pytest

from repro.api.facade import build as build_simulation
from repro.api.facade import run
from repro.obs.prov import read_log
from repro.scenarios import build
from repro.util import tracing
from repro.util.tracing import Tracer


def _watched_options(tmp_path, **extra):
    b = build("demo")
    options = replace(
        b.options,
        provenance=str(tmp_path / "demo.prov"),
        causal_trace=True,
        tracer=Tracer(),
        **extra,
    )
    return b, options


def _count_calls(sim):
    """Python calls made, and DES events dispatched, running *sim* (its
    wiring and the provenance header not counted)."""
    sim.start()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        sim.sim.run()
    finally:
        sys.setprofile(previous)
    return calls, sim.sim.kernel_counters()["dispatched"]


class TestWatchedPathCost:
    """A count, not a timing: Python calls per dispatched DES event of
    the ``demo`` run with provenance, causal trace and a tracer on.

    What watching costs on top of the unwatched path: each decision
    builds one event tuple and hands it to the folds reading its kind.
    """

    #: ≈10% above the 30.1 measured before the spine, when each
    #: consumer was fed by hand at each site (32.8 with it).
    CEILING = 33.1

    def test_calls_per_event_stay_under_the_ceiling(self, tmp_path):
        b, options = _watched_options(tmp_path)
        sim = build_simulation(b.config, list(b.programs), options)
        calls, events = _count_calls(sim)
        sim._prov.close()
        assert events == 302
        assert calls / events < self.CEILING, (
            f"{calls} calls for {events} events = {calls / events:.1f} per event: "
            "the watched path grew (see docs/observability.md, the event spine)"
        )


class TestSanitizedPathCost:
    """The same count for the ``demo`` run with only the online sanitizer
    watching: it is one fold on the spine and forces no paper trace on.

    29.2 calls per event when it wrapped both reps and forced the tracer
    on (a ``TraceEvent`` built per decision, then dropped); 27.7 as a
    fold (23.8 unwatched).
    """

    CEILING = 28.3

    def test_calls_per_event_stay_under_the_ceiling(self):
        b = build("demo")
        options = replace(b.options, sanitize="strict")
        sim = build_simulation(b.config, list(b.programs), options)
        calls, events = _count_calls(sim)
        assert events == 302
        assert len(sim.sanitizer.report) == 0
        assert calls / events < self.CEILING, (
            f"{calls} calls for {events} events = {calls / events:.1f} per event: "
            "the sanitized path grew (see docs/static_analysis.md, Pass 3)"
        )


class TestFoldsCorrelate:
    @pytest.fixture(scope="class")
    def watched(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("spine")
        b, options = _watched_options(tmp_path, record_operations=True)
        result = run(b.config, list(b.programs), options)
        return result, read_log(tmp_path / "demo.prov")

    @staticmethod
    def _rank(who):
        return int(who.rpartition(".p")[2])

    def test_match_row_span_and_paper_line(self, watched):
        result, log = watched
        rows = Counter(
            (m["cid"], m["rank"], m["request_ts"], m["kind"], m["now"])
            for m in log.matches
        )
        spans = Counter(
            (s.attrs["connection"], s.attrs["rank"], s.attrs["request"], s.attrs["kind"], s.time)
            for s in result.simulation.causal.spans
            if s.name == "match"
        )
        lines = Counter(
            (e.detail["cid"], self._rank(e.who), e.detail["request"], e.detail["answer"], e.time)
            for e in result.tracer.filter(tracing.REQUEST_REPLY)
        )
        assert rows
        assert rows == spans == lines

    def test_import_op_span_paper_line_and_property1_op(self, watched):
        result, log = watched
        ops = Counter(
            (f"{program}.p{rank}", row["region"], row["ts"])
            for (program, rank), rows in log.ops.items()
            for row in rows
            if row["op"] == "import_begin"
        )
        operations = result.simulation.operation_log.records
        property1 = Counter(
            (f"{program}.p{rank}", op.region, op.ts)
            for program, ranks in operations.items()
            for rank, sequence in ranks.items()
            for op in sequence
            if op.kind == "import"
        )
        assert ops
        assert ops == property1
        spans = Counter(
            (s.who, s.attrs["request"], s.time)
            for s in result.simulation.causal.spans
            if s.name == "request"
        )
        lines = Counter(
            (e.who, e.detail["request"], e.time)
            for e in result.tracer.filter(tracing.IMPORT_REQUEST)
        )
        assert spans == lines
        assert Counter((who, ts) for who, _region, ts in ops.elements()) == Counter(
            (who, request) for who, request, _time in spans.elements()
        )
