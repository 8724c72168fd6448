"""Additional DES kernel edge cases."""

import pytest

from repro.des import AnyOf, Event, Simulator, SimulationError


class TestRunEdges:
    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            sim.run(until=1.0)

    def test_run_until_same_time_ok(self):
        sim = Simulator()
        sim.run(until=5.0)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestConditionEdges:
    def test_any_of_fails_on_failed_member(self):
        sim = Simulator()
        caught = []

        def proc():
            ok = sim.timeout(10.0)
            bad = Event(sim)
            bad.fail(RuntimeError("member failed"))
            bad.defuse()
            cond = AnyOf(sim, [ok, bad])
            try:
                yield cond
            except RuntimeError as exc:
                caught.append((str(exc), sim.now))

        sim.process(proc())
        sim.run()
        assert caught == [("member failed", 0.0)]

    def test_any_of_with_all_already_processed(self):
        sim = Simulator()
        a = Event(sim)
        b = Event(sim)
        a.succeed(1)
        b.succeed(2)
        got = []

        def proc():
            yield sim.timeout(0.5)  # both are processed by now
            result = yield AnyOf(sim, [a, b])
            got.append(sorted(result.values()))

        sim.process(proc())
        sim.run()
        assert got == [[1, 2]]

    def test_cross_simulator_wait_rejected(self):
        sim1 = Simulator()
        sim2 = Simulator()
        foreign = sim2.timeout(1.0)

        def proc():
            yield foreign

        sim1.process(proc())
        with pytest.raises(SimulationError, match="another Simulator"):
            sim1.run()


class TestEventValueSemantics:
    def test_value_preserved_after_processing(self):
        sim = Simulator()
        ev = sim.timeout(1.0, value={"k": 1})
        sim.run()
        assert ev.processed
        assert ev.value == {"k": 1}

    def test_ok_flag(self):
        sim = Simulator()
        good = Event(sim)
        good.succeed("fine")
        bad = Event(sim)
        bad.fail(ValueError("nope"))
        bad.defuse()
        sim.run()
        assert good.ok and not bad.ok
        assert isinstance(bad.value, ValueError)
