#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

    python3 perf/spread.py

Runs each workload ten times, with seeds 1 to 10, for BENCHMARK.json's
``run_seconds``, and reports for each (workload, metric) the quartiles of
the ten values (``statistics.quantiles(n=4)``), their distance as a share
of the median, and that spread against the metric's bound.  The same is
reported, without a bound, for the figures as measured, before stolen
time was taken out and the kernel scaled them (``raw``): what the
corrections in perf/calibrate.py buy is the difference between the two on
the same runs.  The benchmark is steady enough when every spread is below
a third of its bound.  Writes ``perf/out/spread.json``;
``perf/baseline/set*.json`` are copies of it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import harness  # noqa: E402

SEEDS = range(1, 11)
OUT = harness.OUT_DIR / "spread.json"


def _summary(values: list[float]) -> dict[str, Any]:
    q1, q2, q3 = harness.quartiles(values)
    return {"values": values, "q1": q1, "median": q2, "q3": q3, "spread": harness.spread(values)}


def main() -> int:
    spec = harness.SPEC
    seconds = float(spec["run_seconds"])
    report: dict[str, Any] = {
        "schema": "perf.spread/v2",
        "environment": harness.environment(SEEDS[0]),
        "seeds": list(SEEDS),
        "run_seconds": seconds,
        "workloads": {},
    }
    worst = 0.0
    for name in (w["name"] for w in spec["workloads"]):
        runs = [harness.run_workload(name, seed, seconds, trace=False) for seed in SEEDS]
        entry: dict[str, Any] = {
            "elapsed_s": [round(run["elapsed_s"], 2) for run in runs],
            "repetitions": [run.get("repetitions", 0) for run in runs],
            "failed_ratio": harness.failed_ratio(
                sum(run["attempted"] for run in runs), sum(run["failed"] for run in runs)
            ),
            "failures": [f for run in runs for f in run["failures"]],
            "metrics": {},
            "raw": {},
        }
        measured = [run for run in runs if run["metrics"]]
        for metric in spec["end_to_end"] if measured else []:
            row = _summary([run["metrics"][metric["name"]] for run in measured])
            row["bound"] = metric["bound"]
            row["spread_over_bound"] = row["spread"] / metric["bound"]
            entry["metrics"][metric["name"]] = row
            worst = max(worst, row["spread_over_bound"])
            print(f"{name:<15} {metric['name']:<15} median {row['median']:>12.6g}  "
                  f"spread {row['spread']:7.2%}  bound {metric['bound']:4.0%}  "
                  f"({row['spread_over_bound']:4.2f} of bound)", flush=True)
        for key in measured[0]["raw"] if measured else []:
            row = entry["raw"][key] = _summary([run["raw"][key] for run in measured])
            print(f"{name:<15} {'raw ' + key:<15} median {row['median']:>12.6g}  "
                  f"spread {row['spread']:7.2%}", flush=True)
        report["workloads"][name] = entry
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"worst spread is {worst:.2f} of its bound (steady below 0.33); "
          f"written to {OUT.relative_to(ROOT)}")
    clean = not any(w["failures"] for w in report["workloads"].values())
    return 0 if worst < 1.0 and clean else 1


if __name__ == "__main__":
    sys.exit(main())
