#!/usr/bin/env python
"""Regenerate the seed-replay golden fixtures.

The fixtures pin the *observable outcomes* of three deterministic
scenarios — final answers, skip counts, Eq. (1)-(2) ledgers, rendered
traces and virtual completion times — so that performance work on the
DES core, the data plane and the control plane can be proven
behavior-preserving: any optimization that changes a single bit of
these outputs fails ``tests/integration/test_seed_replay_golden.py``.

Fixtures were first generated on the unoptimized (pre-overhaul) code
and must only ever be regenerated deliberately, with a justification,
when intended semantics change:

    PYTHONPATH=src python scripts/gen_goldens.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.figure4 import Figure4Spec, figure4_rows  # noqa: E402
from repro.bench.rows import run_row  # noqa: E402
from repro.bench.traces import (  # noqa: E402
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
)
from repro.faults import FaultPlan  # noqa: E402
from repro.scenarios import build  # noqa: E402

OUT = ROOT / "tests" / "golden" / "seed_replay.json"


def chaos_case(plan: FaultPlan | None, **overrides) -> dict:
    """The pinned fields of one ``resilience`` row under *plan*."""
    row = run_row(
        "resilience",
        build("resilience", {"exports": 40, "requests": 15}),
        fault_plan=plan,
        **overrides,
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


def figure4_case(u_procs: int, **overrides) -> dict:
    """The pinned fields of the first ``fig4`` row at 161 exports."""
    spec = replace(Figure4Spec(u_procs=u_procs), exports=161, runs=1, **overrides)
    (row,) = figure4_rows(spec)
    ps = row["p_s"]
    return {
        "u_procs": u_procs,
        "series": ps["series"],
        "decisions": ps["decisions"],
        "t_ub": ps["t_ub"],
        "unnecessary_total": ps["unnecessary_total"],
        "buddy_messages": row["metrics"]["paper"]["buddy_helps_sent"],
        "optimal_iteration": ps["optimal_iteration"],
        "sim_time": row["sim_time"],
    }


def main() -> None:
    golden = {
        "chaos": {
            "baseline": chaos_case(None),
            "faulty": chaos_case(
                FaultPlan(seed=7, drop=0.2, dup=0.1, delay_jitter=5e-5, reorder=0.1)
            ),
        },
        "figure4": [figure4_case(16), figure4_case(32)],
        "traces": {
            "fig5": scenario_fig5().rendered(),
            "fig7": scenario_fig7_with_buddy().rendered(),
            "fig8": scenario_fig8_without_buddy().rendered(),
        },
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
