"""Benchmark harness: regenerates every figure of the paper.

The coupled experiments are described once, in :mod:`repro.scenarios`;
the modules here run them through :func:`repro.run` and fold the
:class:`~repro.RunResult` into the rows the paper plots.

* :mod:`repro.bench.figure4` -- the Section-5 micro-benchmark
  (Figure 4 a-d): per-iteration export time of the slowest exporter
  process for importer sizes 4/8/16/32, six runs each.
* :mod:`repro.bench.scenarios` -- the Figure-3 buffering scenarios
  (importer-slower vs exporter-slower).
* :mod:`repro.bench.resilience` -- the chaos sweep: the same answers
  under every fault plan.
* :mod:`repro.bench.rows` -- the one fold of a run into what the paper
  plots: ``p_s``'s export path and the importer's answers (every
  runner here and every ``repro run`` row).
* :mod:`repro.bench.traces` -- the event-trace scripts of Figures
  5, 7 and 8, plus the Figure-6 optimal-state predicate.
* :mod:`repro.bench.experiments_report` -- every figure as one
  markdown report (``repro experiments``).
* :mod:`repro.bench.reporting` -- ASCII tables/series so the pytest
  benchmarks print the same rows the paper plots.
"""

from repro.bench.figure4 import (
    Figure4Result,
    Figure4Run,
    Figure4Spec,
    build_figure4_simulation,
    run_figure4,
    run_figure4_once,
)
from repro.bench.traces import (
    TraceScenario,
    scenario_fig5,
    scenario_fig7_with_buddy,
    scenario_fig8_without_buddy,
    optimal_state_reached,
)
from repro.bench.scenarios import (
    BufferingScenarioResult,
    run_importer_slower,
    run_exporter_slower,
)
from repro.bench.reporting import format_series, format_table, summarize_runs

__all__ = [
    "Figure4Spec",
    "Figure4Run",
    "Figure4Result",
    "build_figure4_simulation",
    "run_figure4",
    "run_figure4_once",
    "TraceScenario",
    "scenario_fig5",
    "scenario_fig7_with_buddy",
    "scenario_fig8_without_buddy",
    "optimal_state_reached",
    "BufferingScenarioResult",
    "run_importer_slower",
    "run_exporter_slower",
    "format_series",
    "format_table",
    "summarize_runs",
]
