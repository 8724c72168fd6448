#!/usr/bin/env python
"""Regenerate the paper's Figure 4 (a)-(d) as terminal plots.

Runs the Section-5 micro-benchmark for importer sizes 4/8/16/32 and
prints the per-iteration export-time series of the slowest exporter
process ``p_s`` as sparklines plus head/body/tail statistics — the same
information the paper's four sub-figures plot.

By default this uses a reduced size (401 exports, 2 runs) so it
finishes in a couple of seconds; pass ``--full`` for the paper's 1001
exports and 6 runs.

Run:  python examples/figure4_sweep.py [--full] [--no-buddy]
"""

import argparse

from repro.bench.figure4 import Figure4Spec, figure4_rows
from repro.bench.reporting import format_series, format_table, mean_series
from repro.util.stats import SeriesSummary


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-size runs (1001 exports, 6 runs)")
    parser.add_argument("--no-buddy", action="store_true",
                        help="disable the buddy-help optimization")
    args = parser.parse_args()

    exports = 1001 if args.full else 401
    runs = 6 if args.full else 2
    buddy = not args.no_buddy

    print(f"Figure 4 sweep: {exports} exports, {runs} runs/config, "
          f"buddy-help {'ON' if buddy else 'OFF'}\n")
    rows = []
    for sub, u in (("a", 4), ("b", 8), ("c", 16), ("d", 32)):
        spec = Figure4Spec(
            u_procs=u, exports=exports, runs=runs, buddy_help=buddy
        )
        p_s = [row["p_s"] for row in figure4_rows(spec)]
        mean = mean_series([ps["series"] for ps in p_s])
        print(format_series(f"4({sub}) U={u:<2}  p_s export time", mean, unit="s"))
        run0 = p_s[0]
        summary = SeriesSummary.from_series(run0["series"])
        opt = run0["optimal_iteration"]
        rows.append([
            f"4({sub})", u,
            f"{summary.head_mean * 1e3:.3f}",
            f"{summary.tail_mean * 1e3:.3f}",
            f"{run0['skip_fraction']:.2f}",
            opt if opt is not None else "never",
            f"{run0['t_ub'] * 1e3:.2f}",
        ])
        print()

    print(format_table(
        ["fig", "U procs", "head ms", "tail ms", "skip%", "optimal @", "T_ub ms"],
        rows,
    ))
    print(
        "\nPaper shape check: (a)/(b) flat and never optimal; (c) optimal"
        "\nafter a gradual catch-up (paper: ~400 iters at full size);"
        "\n(d) optimal almost immediately (paper: ~25 iters)."
    )


if __name__ == "__main__":
    main()
