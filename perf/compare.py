#!/usr/bin/env python3
"""Compare two sets of benchmark runs, the way later perf PRs are judged.

    python3 perf/compare.py A.json B.json

A is the base (the parent commit), B the change.  Each file is either a
ledger written by ``perf/run.py`` (one run per workload) or a spread file
written by ``perf/spread.py`` (ten runs per workload).  Run *i* of A and
run *i* of B are a pair: take the two files pair by pair, alternating
which side runs first, because this program cannot tell from the files
whether the host changed between one whole set and the next.  One row per
(workload, end-to-end metric): both medians, B/A, the pairs B won, the
metric's bound from BENCHMARK.json and a verdict:

  unresolved  a side's spread (interquartile distance over median) exceeds
              the bound and the two sets of runs interleave, so the medians
              say nothing either way
  worse       B's median is worse than A's by more than the bound
  better      there are at least ten pairs, B wins at least nine tenths of
              them (ties counting for neither), and B's median is better
              than A's by more than A's own spread
  same        none of the above

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perf.harness import SPEC, spread  # noqa: E402

Values = dict[str, dict[str, list[float]]]


def load(path: Path) -> Values:
    """workload -> metric -> the values of every run in *path*."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if doc.get("schema") == "perf.spread/v2":
        return {
            name: {m: list(entry["values"]) for m, entry in w["metrics"].items()}
            for name, w in doc["workloads"].items()
        }
    if doc.get("schema") == "perf.ledger/v1":
        return {
            run["workload"]: {m: [v] for m, v in run["metrics"].items()} for run in doc["runs"]
        }
    raise ValueError(f"{path}: neither a perf.ledger/v1 nor a perf.spread/v2 file")


#: Fewest pairs a gain may be claimed on, and the share of them the change must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def wins(a: list[float], b: list[float], better: str) -> int:
    """Pairs in which B's run reads better than A's."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * y < sign * x for x, y in zip(a, b))


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The row's verdict; see the module docstring for the rule."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worsening = sign * (med_b - med_a) / med_a
    apart = (
        min(sign * v for v in b) > max(sign * v for v in a)
        or max(sign * v for v in b) < min(sign * v for v in a)
    )
    if max(spread(a), spread(b)) > bound and not apart:
        return "unresolved"
    if worsening > bound:
        return "worse"
    pairs = min(len(a), len(b))
    if (
        pairs >= MIN_PAIRS
        and wins(a, b, better) >= WIN_SHARE * pairs
        and -worsening > spread(a)
    ):
        return "better"
    return "same"


def rows(a: Values, b: Values) -> list[tuple[Any, ...]]:
    out = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                continue
            med_a, med_b = statistics.median(va), statistics.median(vb)
            out.append((
                workload, name, med_a, med_b, med_b / med_a,
                f"{wins(va, vb, metric['better'])}/{min(len(va), len(vb))}", metric["bound"],
                verdict(va, vb, metric["better"], metric["bound"]),
            ))
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__)
        return 2
    table = rows(load(Path(args[0])), load(Path(args[1])))
    print(f"{'workload':<15} {'metric':<15} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'B wins':>7} {'bound':>6}  verdict")
    for workload, name, med_a, med_b, ratio, won, bound, word in table:
        print(f"{workload:<15} {name:<15} {med_a:>12.6g} {med_b:>12.6g} "
              f"{ratio:>7.3f} {won:>7} {bound:>6.0%}  {word}")
    return 1 if any(row[-1] == "worse" for row in table) else 0


if __name__ == "__main__":
    sys.exit(main())
