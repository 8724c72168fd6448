"""A served session is a ``repro run`` cell: one :class:`Cell`, one row.

The served report row and provenance log of a cell are compared with
what ``repro run`` produces for the same cell, in-process: the worker
runs with a stub pipe, so its telemetry is on exactly as in a pool
worker, and watching changes nothing.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api.options import RunOptions
from repro.cli import EXIT_OK, main
from repro.faults.plan import FaultPlan
from repro.obs.prov import read_log
from repro.scenarios import Cell
from repro.serve.scenarios import build_scenario
from repro.serve.spec import SessionSpec
from repro.serve.worker import run_session


class Pipe:
    """The worker's end of its pipe: collects the frames it sends."""

    def __init__(self) -> None:
        self.frames: list[tuple] = []

    def send(self, frame: tuple) -> None:
        self.frames.append(frame)


def served(spec: SessionSpec) -> dict:
    """The outcome of *spec* run by the worker with a live pipe sink."""
    pipe = Pipe()
    outcome = run_session("s-cell", spec.to_dict(), conn=pipe)
    assert outcome["ok"], outcome
    assert pipe.frames[-1] == ("outcome", outcome)
    assert any(kind == "telemetry" for kind, _ in pipe.frames)
    return json.loads(json.dumps(outcome))


def cli_row(capsys, argv: list[str]) -> dict:
    assert main(["run", *argv, "--json"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["runs"]
    return row


CASES = {
    "params": (
        SessionSpec(scenario="demo", params={"exports": 200, "seed": 7}, label="plain"),
        ["demo", "-p", "exports=200", "-p", "seed=7"],
    ),
    "fault-plan": (
        SessionSpec(scenario="demo", params={"exports": 200, "seed": 7},
                    fault_plan={"drop": 0.2, "seed": 7}),
        ["demo", "-p", "exports=200", "-p", "seed=7", "--fault", '{"drop": 0.2, "seed": 7}'],
    ),
}


class TestServedRowIsTheRunRow:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_report_row_equals_the_cli_row(self, case, capsys):
        spec, argv = CASES[case]
        got = served(spec)["report"]["runs"][0]
        want = cli_row(capsys, argv)
        assert got["name"] == (spec.label or "demo exports=200 seed=7")
        assert want["name"] == "demo exports=200 seed=7"
        assert {"p_s", "answers", "params", "fault_plan"} <= set(got)
        # Watched every 0.05 s, the served run is the unwatched one.
        assert {**got, "name": want["name"]} == want

    def test_fleet_row_is_the_run_row(self):
        from repro.serve.registry import SessionRecord

        spec = CASES["params"][0]
        outcome = served(spec)
        record = SessionRecord(id="s-cell", spec=spec, state="done", created=0.0,
                               finished=1.5, report=outcome["report"], records=3)
        row = record.row()
        assert row == {**outcome["report"]["runs"][0], "state": "done", "duration": 1.5,
                       "telemetry_records": 3, "telemetry_dropped": 0}


class TestServedProvenance:
    def test_log_equals_the_cli_log_byte_for_byte(self, tmp_path, capsys):
        spec = SessionSpec(scenario="demo", params={"exports": 200, "seed": 7},
                           provenance=True)
        text = served(spec)["provenance"]
        cli_path = tmp_path / "cli.prov"
        cli_row(capsys, ["demo", "-p", "exports=200", "-p", "seed=7",
                         "--provenance", str(cli_path)])
        assert text == cli_path.read_text(encoding="utf-8")
        log = read_log(cli_path)
        assert len(log.wire) == 31 and len(log.matches) == 5


class TestCell:
    def test_name_row_and_dict(self):
        cell = Cell("demo", {"exports": 200, "imports": [20.0, 40.0]},
                    {"drop": 0.2, "seed": 7})
        assert cell.name == "demo exports=200 imports=[20.0,40.0]"
        assert isinstance(cell.fault_plan, FaultPlan)
        row = cell.row()
        assert list(row) == ["name", "scenario", "params", "fault_plan"]
        assert row["fault_plan"]["drop"] == 0.2 and "stop" not in row["fault_plan"]
        assert json.loads(json.dumps(row)) == row
        assert Cell.from_dict(cell.to_dict()) == cell
        assert cell.build().options.fault_plan == cell.fault_plan

    def test_no_fault_plan_keeps_the_scenario_options(self):
        assert Cell("fig3b").build().options == build_scenario(
            SessionSpec(scenario="fig3b", telemetry_interval=0.25)).options

    @pytest.mark.parametrize("bad", [
        {"scenario": ""}, {"scenario": "demo", "params": [1]},
        {"scenario": "demo", "fault_plan": [0.2]},
        {"scenario": "demo", "fault_plan": {"dropp": 0.2}},
        {"scenario": "demo", "bogus": 1}, ["demo"],
    ])
    def test_malformed_cell_is_refused(self, bad):
        with pytest.raises(ValueError):
            Cell.from_dict(bad)

    def test_bad_param_is_refused_at_build(self):
        with pytest.raises(ValueError, match="valid params are"):
            Cell("demo", {"exports": 0}).build()

    def test_spec_is_a_cell_plus_serve_fields(self):
        spec = SessionSpec(scenario="demo", params={"seed": 3}, label="x")
        assert isinstance(spec, Cell)
        assert spec.row() == Cell("demo", {"seed": 3}).row()
        assert spec.row(spec.label)["name"] == "x"
        assert build_scenario(spec).options.telemetry_interval == 0.05


class TestNonFiniteTelemetryInterval:
    @pytest.mark.parametrize("interval", [math.inf, math.nan, 0.0, -1.0])
    def test_run_options_refuse_it(self, interval):
        with pytest.raises(ValueError, match="telemetry_interval"):
            RunOptions(telemetry_interval=interval)

    def test_spec_refuses_it(self):
        with pytest.raises(ValueError, match="telemetry_interval"):
            SessionSpec.from_dict(json.loads('{"telemetry_interval": Infinity}'))
