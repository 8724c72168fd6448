"""Runtime Property-1 enforcement: misbehaving programs are caught.

Three mechanisms, all tested here:

* the **operation log** (``record_operations=True``) checks all
  export/import sequences after the run;
* the **rep** detects inconsistent responses *during* the run when the
  divergence reaches a request (MATCH vs NO_MATCH, or different
  matched timestamps);
* with buddy-help on, a rank that adopts the rep's answer holds it
  against its own exports (``ConnectionExportState.check_verdict``).
"""

import pytest

import repro
from repro.analysis.sanitizer import SanitizerError
from repro.api import RunOptions
from repro.core.coupler import CoupledSimulation, RegionDef
from repro.core.exceptions import FrameworkError, PropertyViolationError
from repro.costs import FAST_TEST
from repro.data import BlockDecomposition
from repro.faults import ProcessFaultSpec, inject_main
from repro.match.result import FinalAnswer, MatchKind

CONFIG = """
E c0 /bin/E 2
I c1 /bin/I 2
#
E.d I.d REGL 2.5
"""


def build(e_main, i_requests=(20.0,), record=True, importer_sleep=0.01):
    def i_main(ctx):
        for ts in i_requests:
            yield from ctx.compute(importer_sleep)
            yield from ctx.import_("d", ts)

    cs = CoupledSimulation(
        CONFIG, options=RunOptions(preset=FAST_TEST, record_operations=record, seed=0)
    )
    cs.add_program("E", main=e_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))})
    cs.add_program("I", main=i_main,
                   regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))})
    return cs


class TestOperationLog:
    def test_conformant_program_passes(self):
        def e_main(ctx):
            for k in range(30):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main)
        cs.run()
        assert cs.check_property1() == []

    def test_divergent_sequences_detected_offline(self):
        def e_main(ctx):
            # Rank 1 exports shifted timestamps: NOT collective.
            shift = 0.25 if ctx.rank == 1 else 0.0
            for k in range(30):
                yield from ctx.export("d", 1.6 + k + shift)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=())
        cs.run()
        with pytest.raises(PropertyViolationError):
            cs.check_property1()
        violations = cs.check_property1(raise_on_violation=False)
        assert violations and "E" in violations[0]

    def test_prefix_lag_is_fine(self):
        def e_main(ctx):
            # Rank 1 exports fewer objects (cut short) but the prefix
            # matches: conformant per the checker.
            n = 10 if ctx.rank == 1 else 30
            for k in range(n):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=())
        cs.run()
        assert cs.check_property1() == []

    def test_requires_recording(self):
        def e_main(ctx):
            yield from ctx.export("d", 1.0)

        cs = build(e_main, i_requests=(), record=False)
        cs.run()
        with pytest.raises(ValueError, match="record_operations"):
            cs.check_property1()

    def test_import_operations_logged_too(self):
        def e_main(ctx):
            for k in range(30):
                yield from ctx.export("d", 1.6 + k)
                yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=(20.0,))
        cs.run()
        assert cs.operation_log is not None
        seq = cs.operation_log.sequence("I", 0)
        assert [op.kind for op in seq] == ["import"]


class TestRepDetection:
    def test_divergent_matches_raise_at_the_rep(self):
        """When ranks export different timestamps, their definitive
        responses disagree and the rep raises mid-run."""

        def e_main(ctx):
            shift = 0.5 if ctx.rank == 1 else 0.0
            for k in range(40):
                yield from ctx.export("d", 1.6 + k + shift)
                yield from ctx.compute(0.0005)

        cs = build(e_main, i_requests=(20.0,), record=False)
        with pytest.raises(PropertyViolationError):
            cs.run()

    def test_match_vs_no_match_raises(self):
        """Rank 1 exports nothing near the request: it answers NO_MATCH
        while rank 0 answers MATCH — illegal aggregate."""

        def e_main(ctx):
            if ctx.rank == 0:
                stream = [1.6 + k for k in range(40)]
            else:
                stream = [100.0 + k for k in range(40)]  # far from 20.0
            for ts in stream:
                yield from ctx.export("d", ts)
                yield from ctx.compute(0.0005)

        cs = build(e_main, i_requests=(20.0,), record=False)
        with pytest.raises(PropertyViolationError):
            cs.run()


DIVERGENT_CONFIG = """
F c0 /bin/F 2
U c1 /bin/U 2
#
F.d U.d REGL 2.5
"""


def divergent_run(buddy_help, sanitize, rank0_compute=0.001):
    """The divergent programs of ``test_live.py::TestLivePropertyViolations``
    on the DES: F has 2 ranks, rank 1 exports ``1.6 + k + 0.5``, and U
    imports 20.0 under ``REGL 2.5``.  The collective verdict is rank 1's
    MATCH/19.1; rank 0's own answer would be MATCH/19.6."""

    def e_main(ctx):
        shift = 0.5 if ctx.rank == 1 else 0.0
        pause = rank0_compute if ctx.rank == 0 else 0.001
        for k in range(30):
            yield from ctx.export("d", 1.6 + k + shift)
            yield from ctx.compute(pause)

    def i_main(ctx):
        yield from ctx.compute(0.01)
        yield from ctx.import_("d", 20.0)

    repro.run(
        DIVERGENT_CONFIG,
        [
            repro.Program("F", main=e_main,
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))}),
            repro.Program("U", main=i_main,
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))}),
        ],
        RunOptions(buddy_help=buddy_help, sanitize=sanitize),
    )


class TestDivergentRunVerdicts:
    """A Property-1 violation is reported as one whichever path meets it
    first: the rep (buddy-help off) or the rank that is told to send an
    object it never exported (buddy-help on)."""

    UNEXPORTED = (
        "F.p0 on F.d->U.d: the collective verdict MATCH/19.1 names a timestamp "
        "this process never exported (its exports around it: 18.6, 19.6) — "
        "Property 1 violated"
    )

    @pytest.mark.parametrize("sanitize", ["report", "strict"])
    @pytest.mark.parametrize("buddy_help", [True, False])
    def test_divergent_run(self, buddy_help, sanitize):
        with pytest.raises(FrameworkError) as exc_info:
            divergent_run(buddy_help, sanitize)
        error = exc_info.value
        if buddy_help:
            assert type(error) is PropertyViolationError
            assert str(error) == self.UNEXPORTED
        elif sanitize == "report":
            assert type(error) is PropertyViolationError
            assert str(error) == (
                "F rep: process 0 answered MATCH/19.6 for request @20.0 on "
                "F.d->U.d, but the collective verdict was MATCH/19.1 — "
                "Property 1 violated"
            )
        else:
            assert type(error) is SanitizerError
            assert "S301" in str(error) and "definitive responses disagree" in str(error)

    def test_a_verdict_heard_before_the_stream_passes_it(self):
        """Rank 0 is slow: it hears MATCH/19.1 before its stream reaches
        19.1, and raises when the stream passes it (without the check the
        import waits forever for rank 0's pieces and the run drains)."""
        with pytest.raises(PropertyViolationError) as exc_info:
            divergent_run(True, None, rank0_compute=0.01)
        assert str(exc_info.value) == self.UNEXPORTED


class TestMatchEntry:
    """``ProtocolDriver._match_entry``: a match neither buffered nor sent
    is one lost to control-message loss."""

    LOSS = (
        "E.p0: match @{m:g} of E.d->I.d is no longer buffered — pipelined "
        "imports combined with control-message loss can evict a pending "
        "match (see docs/resilience.md)"
    )

    @pytest.fixture
    def ctx(self):
        def e_main(ctx):
            yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=(), record=False)
        cs.start()
        ctx = cs.context("E", 0)
        for ts in (1.0, 2.0, 3.0):
            ctx.export_states["d"].history.add(ts)  # exported, never buffered
        return cs, ctx

    def test_an_exported_match_gone_from_the_buffer_is_control_loss(self, ctx):
        cs, ctx = ctx
        with pytest.raises(FrameworkError) as exc_info:
            cs._match_entry(ctx, "d", "E.d->I.d", 2.0)
        assert type(exc_info.value) is FrameworkError
        assert str(exc_info.value) == self.LOSS.format(m=2.0)

    def test_a_timestamp_not_yet_reached_is_control_loss(self, ctx):
        cs, ctx = ctx
        with pytest.raises(FrameworkError) as exc_info:
            cs._match_entry(ctx, "d", "E.d->I.d", 4.0)
        assert type(exc_info.value) is FrameworkError


class TestVerdictArrival:
    """A buddy answer is checked against the exports so far the moment it
    arrives: the rank is never asked to send what it did not export."""

    @pytest.fixture
    def state(self):
        def e_main(ctx):
            yield from ctx.compute(0.001)

        cs = build(e_main, i_requests=(), record=False)
        cs.start()
        st = cs.context("E", 0).export_states["d"]
        for ts in (1.0, 2.0, 3.0):
            st.history.add(ts)
        return st

    def test_a_passed_timestamp_never_exported_is_property1(self, state):
        answer = FinalAnswer(3.0, MatchKind.MATCH, 2.5)
        with pytest.raises(PropertyViolationError) as exc_info:
            state.on_buddy_answer("E.d->I.d", answer)
        assert str(exc_info.value) == (
            "E.p0 on E.d->I.d: the collective verdict MATCH/2.5 names a timestamp "
            "this process never exported (its exports around it: 2, 3) — "
            "Property 1 violated"
        )

    def test_an_export_preferred_to_the_match_is_property1(self, state):
        with pytest.raises(PropertyViolationError) as exc_info:
            state.on_buddy_answer("E.d->I.d", FinalAnswer(3.0, MatchKind.MATCH, 2.0))
        assert str(exc_info.value) == (
            "E.p0 on E.d->I.d: the collective verdict MATCH/2 for request @3.0 is "
            "not this process's answer: it exported 3, closer to the request — "
            "Property 1 violated"
        )

    def test_an_export_in_the_region_refutes_no_match(self, state):
        with pytest.raises(PropertyViolationError) as exc_info:
            state.on_buddy_answer("E.d->I.d", FinalAnswer(3.5, MatchKind.NO_MATCH))
        assert str(exc_info.value) == (
            "E.p0 on E.d->I.d: the collective verdict NO_MATCH for request @3.5 is "
            "not this process's answer: it exported 1, inside the request's "
            "region — Property 1 violated"
        )

    def test_the_own_answer_is_adopted(self, state):
        applied = state.on_buddy_answer("E.d->I.d", FinalAnswer(3.5, MatchKind.MATCH, 3.0))
        assert applied.send_now == 3.0
        # The region [1.0, 3.5] is not yet passed: a later export in it
        # could still refute the answer.
        assert list(state.connections["E.d->I.d"].unconfirmed) == [3.5]


def cut_short_run(buddy_help, short_rank, importer_delay, short_pause=0.01, long_pause=0.01):
    """F's rank *short_rank* exports ``1.6 + k`` for k < 18 and the other
    rank for k < 30; U computes *importer_delay*, then imports 20.0 under
    ``REGL 2.5``.  The lines differ (18.6 vs 19.6 for the request): a
    collective verdict of either is a Property-1 violation."""

    def e_main(ctx):
        short = ctx.rank == short_rank
        for k in range(18 if short else 30):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(short_pause if short else long_pause)

    def i_main(ctx):
        yield from ctx.compute(importer_delay)
        yield from ctx.import_("d", 20.0)

    repro.run(
        DIVERGENT_CONFIG,
        [
            repro.Program("F", main=e_main,
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))}),
            repro.Program("U", main=i_main,
                          regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))}),
        ],
        RunOptions(buddy_help=buddy_help),
    )


class TestCutShortStream:
    """A rank whose export line ends before the other's is reported as a
    Property-1 violation with buddy-help on as with it off, whenever the
    request arrives.  With buddy-help on the long rank is told to send
    18.6 after exporting 19.6: the check must come before the buffer
    lookup, which would report control-message loss once 18.6 is freed
    and send it while it is still held (both imports answered by 18.6)."""

    @pytest.mark.parametrize("short_rank", [0, 1])
    @pytest.mark.parametrize("importer_delay", [0.0, 0.1, 0.18, 0.19, 0.2])
    @pytest.mark.parametrize("buddy_help", [True, False])
    def test_reported_as_property1(self, buddy_help, importer_delay, short_rank):
        with pytest.raises(PropertyViolationError) as exc_info:
            cut_short_run(buddy_help, short_rank, importer_delay)
        message = str(exc_info.value)
        assert "18.6" in message and "19.6" in message
        assert message.endswith("Property 1 violated")

    @pytest.mark.parametrize("short_rank", [0, 1])
    def test_a_match_heard_before_the_line_ends_short_of_it(self, short_rank):
        """The short rank is slow: it hears MATCH/19.6 before exporting
        it and its main returns with the match still to send (unchecked,
        the run drains with both imports waiting)."""
        with pytest.raises(PropertyViolationError) as exc_info:
            cut_short_run(True, short_rank, 0.0, long_pause=0.001)
        assert str(exc_info.value) == (
            f"F.p{short_rank} on F.d->U.d: the collective verdict MATCH/19.6 "
            "names a timestamp this process never exported (its exports "
            "around it: 18.6) — Property 1 violated"
        )


#: F's two export lines and the pause after each export, per rank.
HOLES = {
    # Rank 0's line ends at 18.6 and it is fast: the collective answers
    # MATCH/18.6, which rank 1 (slow) adopts before its stream reaches
    # 19.6, closer to the request.
    "cut_short": (
        ([1.6 + k for k in range(18)], [1.6 + k for k in range(30)]),
        (0.001, 0.02),
    ),
    # Rank 1's line skips 17.6-19.6 and it is fast: the collective
    # answers NO_MATCH, which rank 0 (slow) adopts before exporting 17.6.
    "no_match": (
        ([1.6 + k for k in range(30)], [1.6 + k for k in range(30) if not 16 <= k <= 18]),
        (0.02, 0.001),
    ),
}


def _returned(value):
    return value
    yield  # pragma: no cover - makes this a generator


def hole_run(runtime, buddy_help, hole):
    """Run *hole* on *runtime*; returns the Property-1 error it raised
    (the live runtime's ``RuntimeError`` carries it as ``__cause__``)."""
    lines, pauses = HOLES[hole]

    # One body for both runtimes: ``step`` adapts a context call to
    # ``yield from`` (see ``test_live.py``).
    def e_body(ctx, step):
        for ts in lines[ctx.rank]:
            yield from step(ctx.export("d", ts))
            yield from step(ctx.compute(pauses[ctx.rank]))

    def i_body(ctx, step):
        yield from step(ctx.compute(0.01))
        yield from step(ctx.import_("d", 20.0))

    if runtime == "des":
        def bind(body):
            return lambda ctx: body(ctx, lambda gen: gen)
        options = RunOptions(buddy_help=buddy_help)
    else:
        def bind(body):
            return lambda ctx: [None for _ in body(ctx, _returned)]
        options = RunOptions(runtime="live", buddy_help=buddy_help, default_timeout=10.0)
    with pytest.raises((FrameworkError, RuntimeError)) as exc_info:
        repro.run(
            DIVERGENT_CONFIG,
            [
                repro.Program("F", main=bind(e_body),
                              regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))}),
                repro.Program("U", main=bind(i_body),
                              regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))}),
            ],
            options,
        )
    error = exc_info.value
    return error.__cause__ if runtime == "live" else error


class TestAdoptedVerdictHoles:
    """Two programs whose lines differ inside the request's region: with
    buddy-help on the slow rank adopts an answer its own exports refute,
    and the run is stopped as it is with buddy-help off (before, it
    returned with both imports answered 18.6, or both NO_MATCH)."""

    @pytest.mark.parametrize("buddy_help", [True, False])
    @pytest.mark.parametrize("runtime", ["des", "live"])
    @pytest.mark.parametrize("hole", sorted(HOLES))
    def test_reported_as_property1(self, hole, runtime, buddy_help):
        error = hole_run(runtime, buddy_help, hole)
        assert type(error) is PropertyViolationError
        message = str(error)
        if hole == "cut_short":
            assert "18.6" in message and "19.6" in message
        else:
            assert "@20.0" in message and "NO_MATCH" in message
            assert any(f"{ts:g}" in message for ts in (17.6, 18.6, 19.6))
        assert message.endswith("Property 1 violated")

    def test_the_adopting_rank_names_the_refuting_export(self):
        assert str(hole_run("des", True, "cut_short")) == (
            "F.p1 on F.d->U.d: the collective verdict MATCH/18.6 for request @20.0 "
            "is not this process's answer: it exported 19.6, closer to the "
            "request — Property 1 violated"
        )
        assert str(hole_run("des", True, "no_match")) == (
            "F.p0 on F.d->U.d: the collective verdict NO_MATCH for request @20.0 "
            "is not this process's answer: it exported 17.6, inside the "
            "request's region — Property 1 violated"
        )


def test_a_crash_leaves_an_unconfirmed_verdict_unchecked():
    """One export line, and the slow rank fail-stops after adopting
    MATCH/19.6 and before exporting it: its line ends short because it
    crashed, not because it differs, so no Property-1 error.  Fail-stop
    leaves its stream open, so request @20 is never answered: the
    schedule drains with the importers waiting, and the run says so,
    with buddy-help on or off.  (Closing the crashed stream answered
    NO_MATCH for the rank: with buddy-help off, that raised a false
    Property-1 error against MATCH/19.6.)"""

    def e_main(ctx):
        pause = 0.02 if ctx.rank == 1 else 0.001
        for k in range(30):
            yield from ctx.export("d", 1.6 + k)
            yield from ctx.compute(pause)

    crashing = inject_main(e_main, ProcessFaultSpec(crash_at=0.2))

    def i_main(ctx):
        yield from ctx.compute(0.01)
        yield from ctx.import_("d", 20.0)

    def f_main(ctx):
        return (crashing if ctx.rank == 1 else e_main)(ctx)

    for buddy_help in (True, False):
        cs = repro.build(
            DIVERGENT_CONFIG,
            [
                repro.Program("F", main=f_main,
                              regions={"d": RegionDef(BlockDecomposition((8, 8), (2, 1)))}),
                repro.Program("U", main=i_main,
                              regions={"d": RegionDef(BlockDecomposition((8, 8), (1, 2)))}),
            ],
            RunOptions(buddy_help=buddy_help),
        )
        with pytest.raises(FrameworkError) as raised:
            cs.run()
        assert type(raised.value) is FrameworkError
        assert str(raised.value) == (
            "the schedule drained while mains still wait: U.p0, U.p1 (crashed: F.p1)"
        )
        slow = cs.context("F", 1)
        assert slow.crashed
        assert slow.export_states["d"].history.latest < 17.5
        if buddy_help:  # the verdict was pending, and stays unchecked
            assert slow.stats.buddy_answers_received == 1
            assert list(slow.export_states["d"].connections["F.d->U.d"].unconfirmed) == [20.0]
