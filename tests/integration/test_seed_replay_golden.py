"""Seed-replay golden tests: optimizations must be bit-identical.

The fixtures in ``tests/golden/seed_replay.json`` were generated by
``scripts/gen_goldens.py`` on the *unoptimized* hot paths (pre
fast-path DES core, pre zero-copy data plane); today both it and these
tests read the ``repro run`` rows of :func:`~repro.bench.rows.run_row`.  These tests prove that
the optimized implementation replays the exact same behavior: final
answers, skip counts, ``T_ub`` ledgers, per-iteration export-cost
series and rendered traces, down to the last bit of every float.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.rows import run_row
from repro.faults import FaultPlan
from repro.scenarios import build

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "seed_replay.json"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


#: The goldens were generated under the legacy scan engine; replaying
#: them under the sorted sweep backend proves the two backends make
#: bit-identical decisions — including under a fault plan, where the
#: ``strict_order=False`` re-ask path is exercised.
BACKENDS = ["legacy", "sorted"]


def _chaos_dict(plan, match_backend="legacy"):
    """The golden fields of the ``repro run resilience`` row under *plan*."""
    row = run_row(
        "resilience",
        build("resilience", {"exports": 40, "requests": 15}),
        fault_plan=plan,
        match_backend=match_backend,
    )
    return {
        "drop": plan.drop if plan is not None else 0.0,
        "answers": row["answers"],
        "skip_count": row["p_s"]["decisions"].get("skip", 0),
        "t_ub": row["p_s"]["t_ub"],
        "retransmissions": row["counters"]["retransmissions"],
        "dup_discards": row["counters"]["dup_discards"],
        "sim_time": row["sim_time"],
    }


def _normalize(node):
    """JSON round-trip normalization (tuples -> lists)."""
    return json.loads(json.dumps(node))


class TestChaosGolden:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_baseline_run_is_bit_identical(self, golden, backend):
        got = _chaos_dict(None, match_backend=backend)
        assert _normalize(got) == golden["chaos"]["baseline"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faulty_run_is_bit_identical(self, golden, backend):
        plan = FaultPlan(seed=7, drop=0.2, dup=0.1, delay_jitter=5e-5, reorder=0.1)
        got = _chaos_dict(plan, match_backend=backend)
        assert _normalize(got) == golden["chaos"]["faulty"]


class TestFigure4Golden:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case_index", [0, 1])
    def test_run_is_bit_identical(self, golden, case_index, backend):
        case = golden["figure4"][case_index]
        spec = replace(
            Figure4Spec(u_procs=case["u_procs"]),
            exports=161,
            runs=1,
            match_backend=backend,
        )
        (row,) = figure4_rows(spec)
        ps = row["p_s"]
        assert ps["series"] == case["series"], "export-cost series diverged"
        assert _normalize(ps["decisions"]) == case["decisions"]
        assert ps["t_ub"] == case["t_ub"]
        assert ps["unnecessary_total"] == case["unnecessary_total"]
        assert row["metrics"]["paper"]["buddy_helps_sent"] == case["buddy_messages"]
        assert ps["optimal_iteration"] == case["optimal_iteration"]
        assert row["sim_time"] == case["sim_time"]


#: The golden's trace keys: Figure 5, and ``fig7`` with buddy-help on
#: (Figure 7) and off (Figure 8).
TRACE_CELLS = {
    "fig5": ("fig5", {}),
    "fig7": ("fig7", {}),
    "fig8": ("fig7", {"buddy_help": False}),
}


class TestTraceGolden:
    def test_rendered_traces_are_bit_identical(self, golden):
        for key, (scenario, params) in TRACE_CELLS.items():
            row = run_row(scenario, build(scenario, params), trace=True)
            assert "\n".join(row["p_s"]["trace"]) == golden["traces"][key]

    def test_run_trace_rows_are_the_golden_traces(self, golden, capsys):
        from repro.cli import main

        traces = []
        for argv in (["fig5"], ["fig7", "-p", "buddy_help=true,false"]):
            assert main(["run", *argv, "--trace", "--json"]) == 0
            runs = json.loads(capsys.readouterr().out)["runs"]
            traces += ["\n".join(row["p_s"]["trace"]) for row in runs]
        assert traces == [golden["traces"][key] for key in ("fig5", "fig7", "fig8")]
