"""What an export, an import and a main's end set off is the driver's.

``ProtocolDriver._exported``, ``ProtocolDriver._main_ended`` and
``ContextBase._import_flow`` are written once; the DES, the live runtime
and the model checker keep only how they wait.  The tests here hold
each runtime to those steps, and to the rules around them: where an
export's buddy-skip step falls, the kind of main a runtime accepts,
finite buffers on the live runtime, and one retransmission budget rule.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

import threading

import pytest

import repro
from repro.analysis.model.machine import ModelConfig, ModelMachine, clone_working
from repro.api import RunOptions
from repro.core import wire
from repro.core.coupler import RegionDef
from repro.core.exceptions import ConfigError, FrameworkError
from repro.core.exporter import ExportDecision
from repro.core.protocol import ContextBase, ProtocolDriver
from repro.data import BlockDecomposition
from repro.match.result import FinalAnswer, MatchKind
from repro.scenarios import build
from repro.util.validation import ValidationError

CONFIG = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"
EXPORTS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
REQUESTS = (2.0, 4.0)


def regions(grid: tuple[int, int]) -> dict[str, RegionDef]:
    return {"d": RegionDef(BlockDecomposition((16, 16), grid))}


def des_programs() -> list[repro.Program]:
    def e_main(ctx: Any) -> Any:
        for ts in EXPORTS:
            yield from ctx.export("d", ts)
            yield from ctx.compute(1e-3)

    def i_main(ctx: Any) -> Any:
        for ts in REQUESTS:
            yield from ctx.compute(5e-4)
            yield from ctx.import_("d", ts)

    return [repro.Program("E", main=e_main, regions=regions((2, 1))),
            repro.Program("I", main=i_main, regions=regions((1, 2)))]


def live_programs() -> list[repro.Program]:
    def e_main(ctx: Any) -> None:
        for ts in EXPORTS:
            ctx.export("d", ts)
            ctx.compute(1e-3)

    def i_main(ctx: Any) -> None:
        for ts in REQUESTS:
            ctx.compute(5e-4)
            ctx.import_("d", ts)

    return [repro.Program("E", main=e_main, regions=regions((2, 1))),
            repro.Program("I", main=i_main, regions=regions((1, 2)))]


LIVE = RunOptions(runtime="live", time_scale=0.01)


@pytest.fixture
def reached(monkeypatch):
    """Counts, per shared step, the calls any runtime makes to it."""
    counts: Counter[str] = Counter()
    for cls, name in (
        (ProtocolDriver, "_exported"),
        (ProtocolDriver, "_main_ended"),
        (ContextBase, "_import_flow"),
    ):
        original = getattr(cls, name)

        def counted(*args: Any, _original: Any = original, _name: str = name,
                    **kwargs: Any) -> Any:
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


class TestEveryRuntimeReachesTheSharedSteps:
    """One two-program line on each runtime: every export, every import
    and every main's end goes through the one copy of its step."""

    def test_des(self, reached):
        repro.run(CONFIG, des_programs())
        assert reached == {"_exported": 2 * len(EXPORTS), "_main_ended": 4,
                           "_import_flow": 2 * len(REQUESTS)}

    def test_live(self, reached):
        repro.run(CONFIG, live_programs(), LIVE)
        assert reached == {"_exported": 2 * len(EXPORTS), "_main_ended": 4,
                           "_import_flow": 2 * len(REQUESTS)}

    def test_model_checker(self, reached):
        """The checker's ``export`` and ``close`` actions; it issues no
        data-plane import, so it never runs the import flow."""
        config = ModelConfig()
        machine = ModelMachine(config)
        w = clone_working(machine.initial_working())
        for r in range(config.nexp):
            for _ts in config.exports:
                machine.apply(w, ("export", r))
            machine.apply(w, ("close", r))
        assert reached == {"_exported": config.nexp * len(config.exports),
                           "_main_ended": config.nexp}


class TestTheBuddySkipStep:
    """A rank adopts its rep's buddy verdict MATCH/19.6 for request 20.0
    (``REGL 2.5``), then exports 18.0: a skip only that verdict allows.
    Every runtime accounts it right after the export's decision, before
    what the export sets off, and the live runtime under the rank's lock."""

    VERDICT = wire.BuddyMsg("E.d->I.d", FinalAnswer(20.0, MatchKind.MATCH, 19.6))

    @pytest.mark.parametrize("runtime", ["des", "live"])
    def test_the_skip_is_accounted_before_the_export_sets_anything_off(
        self, runtime, monkeypatch
    ):
        calls: list[str] = []
        lock_held: list[bool] = []
        skip, exported = ProtocolDriver._buddy_skip, ProtocolDriver._exported

        def counted_skip(rt: Any, ctx: Any, *args: Any) -> Any:
            calls.append("buddy_skip")
            if runtime == "live":
                lock_held.append(is_held(ctx.lock))
            return skip(rt, ctx, *args)

        def counted_exported(*args: Any) -> Any:
            calls.append("exported")
            return exported(*args)

        monkeypatch.setattr(ProtocolDriver, "_buddy_skip", counted_skip)
        monkeypatch.setattr(ProtocolDriver, "_exported", counted_exported)
        if runtime == "des":
            sim = repro.build(CONFIG, des_programs())
            sim.start()
        else:
            sim = repro.build(CONFIG, live_programs(), LIVE)
            sim._finalize_setup()
        ctx = sim.context("E", 0)
        sim._agent_handle(ctx, self.VERDICT)
        decision = ctx.export("d", 18.0)
        if runtime == "des":
            decision = run_to_end(decision)
        assert decision is ExportDecision.SKIP
        assert ctx.stats.buddy_skips == 1
        assert calls == ["buddy_skip", "exported"]
        assert lock_held == ([True] if runtime == "live" else [])


def is_held(lock: Any) -> bool:
    """Whether *lock* is held: another thread cannot take it (its owner
    always could re-enter an RLock)."""
    taken: list[bool] = []

    def try_it() -> None:
        taken.append(lock.acquire(blocking=False))
        if taken[0]:
            lock.release()

    probe = threading.Thread(target=try_it)
    probe.start()
    probe.join(timeout=5.0)
    assert not probe.is_alive()
    return not taken[0]


def run_to_end(gen: Any) -> Any:
    """Drive a DES context call's generator outside the kernel."""
    try:
        while True:
            next(gen)
    except StopIteration as done:
        return done.value


class TestMainOfTheWrongKind:
    def test_generator_mains_are_refused_by_the_live_runtime(self):
        with pytest.raises(ConfigError, match=r"program 'F': main is a generator "
                           r"function; the live runtime"):
            build("demo", {}).run(runtime="live")

    def test_a_main_returning_a_generator_is_refused_by_the_live_runtime(self):
        e_main = des_programs()[0].main
        programs = live_programs()
        programs[0] = repro.Program("E", main=lambda ctx: e_main(ctx),
                                    regions=regions((2, 1)))
        with pytest.raises(RuntimeError, match="live run failed") as raised:
            repro.run(CONFIG, programs, LIVE)
        cause = raised.value.__cause__
        assert type(cause) is ConfigError
        assert str(cause).startswith(
            "program 'E': main(ctx) returned a generator; the live runtime"
        )

    def test_a_plain_main_is_refused_by_the_des(self):
        with pytest.raises(ConfigError, match=r"program 'E': main\(ctx\) returned "
                           r"NoneType, not a generator; the des runtime"):
            repro.run(CONFIG, [live_programs()[0], des_programs()[1]])


class TestLiveBuffers:
    def test_a_capacity_is_enforced(self):
        with pytest.raises(RuntimeError, match="live run failed") as raised:
            repro.run(CONFIG, live_programs(),
                      RunOptions(runtime="live", time_scale=0.01, buffer_capacity_bytes=1))
        cause = raised.value.__cause__
        assert type(cause) is FrameworkError
        assert "buffer capacity exceeded" in str(cause)

    def test_backpressure_is_refused_before_the_run_is_built(self):
        options = RunOptions(runtime="live", buffer_capacity_bytes=1, buffer_policy="block")
        with pytest.raises(ConfigError, match="buffer_policy='block'.*des runtime only"):
            repro.build(CONFIG, live_programs(), options)


class TestMaxRetransmits:
    """One rule on every runtime: ``>= 0``, and 0 gives up at the first
    timeout."""

    @pytest.mark.parametrize("runtime", ["des", "live"])
    def test_zero_is_accepted_and_negative_refused(self, runtime):
        programs = live_programs() if runtime == "live" else des_programs()
        sim = repro.build(CONFIG, programs, RunOptions(runtime=runtime, max_retransmits=0))
        assert sim.max_retransmits == 0
        with pytest.raises(ValidationError, match="max_retransmits must be >= 0, got -1"):
            repro.build(CONFIG, programs, RunOptions(runtime=runtime, max_retransmits=-1))

    def test_zero_gives_up_at_the_first_timeout(self):
        def e_main(ctx: Any) -> Any:
            yield from ctx.compute(1.0)  # silent past the importer's timeout
            yield from ctx.export("d", 2.0)

        def i_main(ctx: Any) -> Any:
            yield from ctx.import_("d", 2.0)

        programs = [repro.Program("E", main=e_main, regions=regions((2, 1))),
                    repro.Program("I", main=i_main, regions=regions((1, 2)))]
        options = RunOptions(retransmit_timeout=0.01, max_retransmits=0)
        with pytest.raises(FrameworkError, match="unanswered after 0 retransmissions"):
            repro.run(CONFIG, programs, options)
