"""A run ends in one place, whatever ends it.

However a run ends — every main returned, an ``until=`` horizon before
or past its end, a main raising — its watchers end once, through
``ProtocolDriver.end``: the telemetry stream carries exactly one
``final`` record, and it is the last; it is ``aborted`` exactly when the
run did not complete; every sink is closed; and the provenance log has
an end record.  A complete DES log replays bit-exactly; every other log
is refused by ``repro replay`` with exit 2 and one ``error:`` line.

The live runtime runs on the wall clock and has no horizon: it refuses
``until=`` before any watcher is opened.
"""

from __future__ import annotations

import dataclasses
from typing import Any

import pytest

import repro
from repro.bench.rows import fold_run
from repro.cli import main
from repro.core.coupler import RegionDef
from repro.data.decomposition import BlockDecomposition
from repro.obs import read_log, verify_replay
from repro.obs.export import report_run
from repro.scenarios import build

#: How each ending is made: ``until=`` and whether a main raises.
ENDINGS = {
    "returns": (None, False),
    "until-before": (0.5, False),
    "until-past": (2.0, False),
    "raises": (None, True),
}


class MemorySink:
    """An in-memory telemetry sink that knows whether it was closed."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self.closed = False

    def emit(self, record: dict[str, Any]) -> None:
        assert not self.closed, "a record after close"
        self.records.append(record)

    def close(self) -> None:
        self.closed = True


def _live_programs(raises: bool) -> list[repro.Program]:
    def e_main(ctx: Any) -> None:
        for k in range(6):
            ctx.export("d", 1.0 + k)
            ctx.compute(1e-3)
            if raises and k == 3:
                raise RuntimeError("injected crash")

    def i_main(ctx: Any) -> None:
        for j in range(1, 3):
            ctx.compute(5e-4)
            ctx.import_("d", 2.0 * j)

    return [
        repro.Program("E", main=e_main,
                      regions={"d": RegionDef(BlockDecomposition((16, 16), (2, 1)))}),
        repro.Program("I", main=i_main,
                      regions={"d": RegionDef(BlockDecomposition((16, 16), (1, 2)))}),
    ]


def _run(runtime: str, ending: str, sink: MemorySink, log: str) -> Any:
    """Run one case with telemetry and provenance on; returns the result."""
    until, raises = ENDINGS[ending]
    if runtime == "des":
        b = build("crash" if raises else "demo", {"exports": 200, "seed": 7})
        config, programs, options = b.config, list(b.programs), b.options
    else:
        config = "E c0 /bin/E 2\nI c1 /bin/I 2\n#\nE.d I.d REGL 2.5\n"
        programs = _live_programs(raises)
        options = repro.RunOptions(runtime="live", time_scale=0.01)
    options = dataclasses.replace(
        options, telemetry_sinks=(sink,), provenance=log,
        telemetry_interval=0.05 if runtime == "des" else 0.002,
    )
    return repro.run(config, programs, options, until=until)


@pytest.mark.parametrize("ending", list(ENDINGS))
@pytest.mark.parametrize("runtime", ["des", "live"])
def test_a_run_ends_once(runtime, ending, tmp_path, capsys):
    until, raises = ENDINGS[ending]
    sink, log = MemorySink(), tmp_path / "run.prov"
    if runtime == "live" and until is not None:
        with pytest.raises(ValueError, match="DES runtime only"):
            _run(runtime, ending, sink, str(log))
        assert sink.records == [] and not sink.closed and not log.exists()
        return
    if raises:
        with pytest.raises(RuntimeError, match="crash"):
            _run(runtime, ending, sink, str(log))
    else:
        _run(runtime, ending, sink, str(log))
    complete = not raises and ending != "until-before"

    finals = [rec["final"] for rec in sink.records]
    assert finals.count(True) == 1 and finals[-1] is True
    last = sink.records[-1]
    assert last.get("aborted", False) is not complete
    if not complete:
        assert last["error"]
    assert sink.closed

    end = read_log(log).end
    assert end is not None and end["aborted"] is not complete
    if runtime == "des" and complete:
        verdict = verify_replay(log)
        assert verdict["ok"] and verdict["report_identical"], verdict
        return
    capsys.readouterr()
    assert main(["replay", str(log)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_a_horizon_past_the_end_moves_nothing():
    """``until=`` past the run's end gives the row of a run without one:
    the time is where the run ended, not the horizon."""
    b = build("demo", {"exports": 200, "seed": 7})
    rows = []
    for until in (None, 2.0):
        result = repro.run(b.config, list(b.programs), b.options, until=until)
        rows.append({**report_run("demo", result), **fold_run(result).row()})
    assert rows[0]["sim_time"] == pytest.approx(0.8002, abs=1e-4)
    assert rows[0] == rows[1]


def test_a_horizon_stop_names_itself(tmp_path):
    sink, log = MemorySink(), tmp_path / "cut.prov"
    result = _run("des", "until-before", sink, str(log))
    reason = "stopped at until=0.5 before every main returned"
    assert result.sim_time == 0.5
    assert sink.records[-1]["error"] == reason
    assert read_log(log).end["error"] == reason
    assert result.simulation.end() == ("stopped", reason)  # idempotent
