"""The scenario registry: every name builds, checks its params, and replays."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.obs import read_log, verify_replay
from repro.obs.prov import payload_digest, report_payload
from repro.scenarios import (
    Param,
    ScenarioBuild,
    build,
    register_scenario,
    scenario_names,
    scenario_params,
)

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: Parameters that make each scenario finish in tens of milliseconds.
#: ``crash`` is set to fail one export past its last, so it runs clean.
SMALL = {
    "demo": {"exports": 12, "imports": [4.0, 8.0]},
    "crash": {"exports": 12, "imports": [4.0, 8.0], "crash_after": 12},
    "fig3a": {"exports": 41},
    "fig3b": {"exports": 41},
    "fig4": {"exports": 41, "u_procs": 32},
    "fig5": {},
    "fig7": {},
    "resilience": {"exports": 12, "requests": 4},
}

#: ``crash_hard`` fail-stops the interpreter that runs it.
RUNNABLE = [n for n in scenario_names() if n != "crash_hard"]


def test_the_papers_experiments_are_registered():
    assert set(scenario_names()) >= {
        "demo", "crash", "crash_hard", "fig3a", "fig3b", "fig4", "fig5", "fig7",
        "resilience",
    }
    assert set(SMALL) == set(RUNNABLE)


@pytest.mark.parametrize("name", RUNNABLE)
class TestEveryScenario:
    def test_builds_with_defaults(self, name):
        built = build(name)
        assert isinstance(built, ScenarioBuild)
        assert len(built.programs) == 2
        # Every front-end may set these two without knowing the scenario.
        assert {"seed", "buddy_help"} <= set(scenario_params(name))

    def test_unknown_param_rejected(self, name):
        with pytest.raises(ValueError, match=r"unknown param 'exprots'.*valid params are"):
            build(name, {"exprots": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"exports": 0},
            {"exports": 46.9},
            {"exports": "12"},
            {"exports": True},
            {"buddy_help": "False"},
            {"buddy_help": 0},
            {"seed": -1},
        ],
        ids=lambda bad: "{}={!r}".format(*next(iter(bad.items()))),
    )
    def test_mistyped_param_rejected_not_coerced(self, name, bad):
        (key, value), = bad.items()
        kind = scenario_params(name)[key].describe()
        with pytest.raises(ValueError) as err:
            build(name, bad)
        assert f"param {key}={value!r} is not {kind}" in str(err.value)
        assert f"scenario {name!r}" in str(err.value)

    def test_equal_params_give_equal_reports(self, name):
        digests = {
            payload_digest(report_payload(build(name, SMALL[name]).run()))
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_records_and_replays_bit_exactly(self, name, tmp_path):
        log = tmp_path / f"{name}.prov"
        build(name, SMALL[name]).run(provenance=str(log), causal_trace=True)
        verdict = verify_replay(read_log(log))
        assert verdict["ok"], verdict
        assert verdict["report_identical"] and verdict["causal_identical"]


class TestParamChecking:
    def test_lists_are_checked_elementwise(self):
        for bad in (5, "20,40", [20.0, "40"], [True]):
            with pytest.raises(ValueError, match="is not numbers"):
                build("demo", {"imports": bad})
        # Integers are numbers; builders see floats either way.
        assert build("demo", {"imports": [4, 8]}).config == build("demo").config

    def test_nothing_is_built_before_the_check(self, monkeypatch):
        from repro import scenarios

        monkeypatch.setattr(scenarios, "_SCENARIOS", dict(scenarios._SCENARIOS))
        calls = []
        register_scenario(
            "probe", lambda **kw: calls.append(kw), {"n": Param("int", 1, 1)}
        )
        with pytest.raises(ValueError, match="param n=0 is not int >= 1"):
            build("probe", {"n": 0})
        assert calls == []
        build("probe", {"n": 3})
        build("probe")
        assert calls == [{"n": 3}, {"n": 1}]

    @pytest.mark.parametrize("name", scenario_names())
    def test_counts_that_size_a_build_are_bounded(self, name, monkeypatch):
        # The server builds at submit, on its event loop: no allocation
        # may scale with an unchecked request field.
        from repro.data import decomposition

        def no_build(*args):
            raise AssertionError("built before the bound was checked")

        monkeypatch.setattr(decomposition, "_block_spans", no_build)
        for key, p in scenario_params(name).items():
            if p.kind == "int" and key not in ("seed", "crash_after"):
                assert p.maximum is not None, key
                with pytest.raises(ValueError, match=rf"{key}=1000000000 is not int 1\.\."):
                    build(name, {key: 10**9})

    def test_a_request_time_already_past_is_refused(self):
        from repro.api import RunOptions
        from repro.scenarios import _pair

        late = _pair(
            RunOptions(), exports=4, export_work=1e-3, slow_factor=1.0,
            imports=(2.0, 3.0), request_at=(5.0, 1.0),
        )
        with pytest.raises(ValueError, match="request 3 due at 1 is past"):
            late.run()

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'.*fig3a"):
            build("nope")
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_params("nope")


class TestDocsTable:
    """docs/serving.md's scenario table is checked against the registry."""

    def rows(self) -> dict[str, str]:
        text = (DOCS / "serving.md").read_text(encoding="utf-8")
        return {
            m.group(1): m.group(0)
            for m in re.finditer(r"^\| `(\w+)` \|.*$", text, flags=re.M)
        }

    @pytest.mark.parametrize("name", scenario_names())
    def test_row_lists_every_param_type_and_default(self, name):
        row = self.rows().get(name)
        assert row is not None, f"docs/serving.md has no row for scenario {name!r}"
        for key, p in scenario_params(name).items():
            cell = f"`{key}` {p.describe()} ({json.dumps(p.default)})"
            assert cell in row, f"{name}: expected {cell!r} in {row!r}"
        documented = set(re.findall(r"`(\w+)` (?:bool|int|number)", row))
        assert documented == set(scenario_params(name))
