"""Benchmark harness: regenerates every figure of the paper.

The coupled experiments are described once, in :mod:`repro.scenarios`;
every run of one is a ``repro run`` row (:func:`run_row`), and a
multi-run experiment is a list of rows.

* :mod:`repro.bench.rows` -- the one fold of a run into what the paper
  plots (``p_s``'s export path and the importer's answers) and
  :func:`run_row`, which runs a scenario build into its row: every
  ``repro run`` cell, benchmark, golden and report reads it.
* :mod:`repro.bench.figure4` -- the Section-5 micro-benchmark
  (Figure 4 a-d): :func:`figure4_rows`, the rows of one importer size,
  six runs by default.
* :mod:`repro.bench.traces` -- the event-trace scripts of Figures
  5, 7 and 8, plus the Figure-6 optimal-state predicate.
* :mod:`repro.bench.experiments_report` -- every figure as one
  markdown report (``repro experiments``), rendered from rows.
* :mod:`repro.bench.reporting` -- ASCII tables/series so the pytest
  benchmarks print the same rows the paper plots.

Figure 3 and the resilience sweep need no runner of their own: they are
``run_row`` over scenarios ``fig3a`` / ``fig3b`` and ``resilience``.
"""

from repro.bench.figure4 import Figure4Spec, build_figure4_simulation, figure4_rows
from repro.bench.reporting import format_series, format_table, mean_series, summarize_runs
from repro.bench.rows import run_row
from repro.bench.traces import (
    TraceScenario,
    optimal_state_reached,
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
)

__all__ = [
    "Figure4Spec",
    "build_figure4_simulation",
    "figure4_rows",
    "run_row",
    "TraceScenario",
    "scenario_fig5",
    "scenario_fig7_with_buddy",
    "scenario_fig8_without_buddy",
    "optimal_state_reached",
    "format_series",
    "format_table",
    "mean_series",
    "summarize_runs",
]
