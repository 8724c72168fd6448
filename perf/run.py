#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perf/run.py                       every workload, untraced; writes the ledger
    python3 perf/run.py --trace 1             every workload, per-layer metrics
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
                                              one measured run; last line is its JSON result
    python3 perf/run.py --check-only          every output check at a tiny size, in seconds

Every metric is printed by name with its unit.  The exit code is non-zero
when an output check fails, a workload crashes or times out, or the
``repro`` sources are not next to ``perf/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"perf/run.py: {ROOT / 'src' / 'repro'} not found; run it from a checkout of the repo")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import harness  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402


def _units(trace: bool) -> dict[str, str]:
    rows = harness.SPEC["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def _print_run(run: dict[str, Any], units: dict[str, str]) -> None:
    name = run["workload"]
    notes = {
        "cal_wall_s": WORKLOADS[name].timed_unit,
        "cal_work_per_s": WORKLOADS[name].work_unit,
    }
    for metric, value in run["metrics"].items():
        note = f" ({notes[metric]})" if metric in notes else ""
        print(f"{name:<15} {metric:<30} {value:>16.6g} {units[metric]}{note}")
    for metric, value in run.get("raw", {}).items():
        print(f"{name:<15} {'raw ' + metric:<30} {value:>16.6g} (as measured, uncorrected)")
    ratio = harness.failed_ratio(run["attempted"], run["failed"])
    print(f"{name:<15} {'failed_ratio':<30} {ratio:>16.6g} ratio "
          f"({run['failed']} of {run['attempted']} operations)")
    for failure in run["failures"]:
        print(f"{name:<15} FAILED {failure}")


def _result_line(run: dict[str, Any], units: dict[str, str]) -> str:
    return json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
    })


def check_only(names: list[str], seed: int) -> int:
    """Run every output check at the tiny size; names the first thing that breaks."""
    bad = 0
    for name in names:
        t0 = perf_counter()
        try:
            workload = WORKLOADS[name](seed, tiny=True)
            try:
                failures = workload.rep().failures + workload.finish()
            finally:
                workload.close()
        except Exception as exc:  # a broken entry point is the finding
            failures = [f"{name}/runs: {type(exc).__name__}: {exc}"]
        bad += bool(failures)
        print(f"{name:<15} {'ok' if not failures else 'FAILED':<7} {perf_counter() - t0:6.2f} s")
        for failure in failures:
            print(f"{name:<15} FAILED {failure}")
    return 1 if bad else 0


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Measure *names* one after another and write the ledger."""
    units = _units(trace)
    runs = []
    for name in names:
        run = harness.run_workload(name, seed, seconds, trace)
        _print_run(run, units)
        runs.append(run)
    ledger = {
        "schema": "perf.ledger/v1",
        "environment": harness.environment(seed),
        "traced": trace,
        "run_seconds": seconds,
        "units": units,
        "runs": runs,
    }
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = harness.OUT_DIR / f"ledger-seed{seed}{'-traced' if trace else ''}.json"
    path.write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
    print(f"ledger written to {path.relative_to(ROOT)}")
    return 0 if all(run["correct"] for run in runs) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(harness.SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check-only", action="store_true")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.child:
        return harness.run_child(args.workload, args.seed, args.seconds, trace, args.setup_only)
    if args.check_only:
        return check_only(names, args.seed)
    if not args.workload:
        return run_all(names, args.seed, args.seconds, trace)
    units = _units(trace)
    run = harness.run_workload(args.workload, args.seed, args.seconds, trace)
    _print_run(run, units)
    if not run["metrics"]:
        return 1  # crashed or hung: nothing measured, so no result line
    print(_result_line(run, units))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
