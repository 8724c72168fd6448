#!/usr/bin/env python
"""What each watcher costs: the per-switch table of docs/observability.md.

Runs the ``prov_record`` inputs of ``perf/run.py`` (the ``demo``
scenario, 2 000 exports, 99 imports, seed 1) in this process under five
switch settings — nothing watching, the causal trace alone, a
``JsonlSink`` telemetry stream alone, the provenance log (which implies
the causal trace) and all three — turn and turn about, ``--runs`` times
each, and prints the minimum and the median wall time of each in
milliseconds, with each one's ratio to the unwatched minimum.

    PYTHONPATH=src python scripts/watch_cost.py [--runs 20]

It asserts nothing: a timing on a shared machine is a reading, not a
gate (``perf/run.py`` is where performance numbers are gated).
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro  # noqa: E402
from repro.obs import JsonlSink  # noqa: E402
from repro.scenarios import build  # noqa: E402

SWITCHES = ("unwatched", "causal", "telemetry", "provenance", "all")


def _options(base, switch: str, out: Path):
    """*base* with the watchers of *switch* on, writing under *out*."""
    telemetry = switch in ("telemetry", "all")
    if telemetry:
        (out / "telemetry.jsonl").unlink(missing_ok=True)  # JsonlSink appends
    return replace(
        base,
        causal_trace=switch == "causal" or base.causal_trace,
        provenance=str(out / "run.prov") if switch in ("provenance", "all") else None,
        telemetry_sinks=(JsonlSink(str(out / "telemetry.jsonl")),) if telemetry else (),
    )


#: The ``prov_record`` inputs of ``perf/run.py``.
PROV_RECORD = {"exports": 2000, "imports": [20.0 * (j + 1) for j in range(99)], "seed": 1}


def measure(runs: int) -> dict[str, list[float]]:
    """Seconds of each run under each switch, the switches in turn."""
    b = build("demo", PROV_RECORD)
    times: dict[str, list[float]] = {switch: [] for switch in SWITCHES}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        repro.run(b.config, list(b.programs), _options(b.options, "all", out))  # warm-up
        for _ in range(runs):
            for switch in SWITCHES:
                options = _options(b.options, switch, out)
                t0 = time.perf_counter()
                repro.run(b.config, list(b.programs), options)
                times[switch].append(time.perf_counter() - t0)
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="runs per switch (default 20)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    times = measure(args.runs)
    base = min(times["unwatched"])
    print(f"{'watching':<12}{'min ms':>9}{'median ms':>11}{'× unwatched':>13}")
    for switch, seconds in times.items():
        print(f"{switch:<12}{min(seconds) * 1e3:>9.1f}"
              f"{statistics.median(seconds) * 1e3:>11.1f}{min(seconds) / base:>13.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
