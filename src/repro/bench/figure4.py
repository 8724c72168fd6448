"""The Section-5 micro-benchmark: Figure 4 (a)-(d).

Setup (paper, Section 5):

* Program **F** (exporter): 4 processes, each owning a 512×512 block of
  a 1024×1024 field; process ``p_s`` does extra computation and is the
  slowest; there is no intra-F data exchange.
* Program **U** (importer): 4 / 8 / 16 / 32 processes over the same
  1024×1024 field; runs faster as process count grows (fixed global
  work).
* 1001 exports (timestamps 1.6, 2.6, ...), requests every 20 time
  units with policy ``REGL 2.5`` — one of every twenty exports is a
  match and gets transferred.
* Measured: per-iteration *data export time* of ``p_s``, six runs.

What the shapes mean:

* U = 4, 8 (importer slower): requests arrive after ``p_s`` has already
  passed them; every export must be buffered → a flat memcpy-dominated
  series with an ~8% elevated initialization head and an ~4% drop after
  the other F processes finish (less memory/network contention).
* U = 16: requests begin to arrive *before* ``p_s`` reaches them;
  buddy-help answers from the faster F processes let ``p_s`` skip ever
  more memcpys each window, decaying toward the optimal state
  (paper: ≈ 400 iterations).
* U = 32: the importer is fast enough that the optimal state is reached
  almost immediately (paper: ≈ 25 iterations).

The configuration itself is :class:`repro.scenarios.Figure4Spec`
(scenario ``fig4``); this module runs it and folds the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.api.facade import build
from repro.bench import rows
from repro.bench.reporting import summarize_runs
from repro.core.coupler import CoupledSimulation
from repro.scenarios import Figure4Spec
from repro.util.stats import SeriesSummary


@dataclass
class Figure4Run:
    """Results of one run: the ``p_s`` series plus framework counters."""

    series: list[float]
    decisions: dict[str, int]
    t_ub: float
    unnecessary_total: float
    buddy_messages: int
    optimal_iteration: int | None
    sim_time: float

    @property
    def skip_fraction(self) -> float:
        """Fraction of exports whose memcpy was skipped."""
        return rows.skip_fraction(self.decisions)

    def summary(self) -> SeriesSummary:
        """Head/body/tail summary of the series."""
        return SeriesSummary.from_series(self.series)


@dataclass
class Figure4Result:
    """All runs of one configuration."""

    spec: Figure4Spec
    runs: list[Figure4Run] = field(default_factory=list)

    def mean_series(self) -> list[float]:
        """Elementwise mean across runs."""
        n = min(len(r.series) for r in self.runs)
        return [
            sum(r.series[i] for r in self.runs) / len(self.runs) for i in range(n)
        ]

    def mean_summary(self) -> SeriesSummary:
        """Summary of the mean series."""
        return summarize_runs([r.series for r in self.runs])


def build_figure4_simulation(
    spec: Figure4Spec, seed: int | None = None, tracer=None
) -> CoupledSimulation:
    """Construct (but do not run) one Figure-4 simulation."""
    scenario = spec.scenario(seed)
    sim = build(
        scenario.config, scenario.programs, replace(scenario.options, tracer=tracer)
    )
    assert isinstance(sim, CoupledSimulation)  # the spec names no runtime: DES
    return sim


#: Re-exported: the perf harness imports it from this module.
optimal_iteration_of = rows.optimal_iteration_of


def run_figure4_once(spec: Figure4Spec, run_index: int = 0) -> Figure4Run:
    """Execute one run and collect the ``p_s`` series and counters."""
    result = spec.scenario(seed=spec.seed * 1000 + run_index).run()
    fold = rows.fold_run(result)
    return Figure4Run(
        series=fold.series,
        decisions=fold.decisions,
        t_ub=fold.ledger.t_ub,
        unnecessary_total=fold.ledger.unnecessary_total_time,
        buddy_messages=result.paper_metrics.buddy_helps_sent,
        optimal_iteration=fold.optimal_iteration,
        sim_time=result.sim_time,
    )


def run_figure4(spec: Figure4Spec) -> Figure4Result:
    """Execute all ``spec.runs`` runs of one configuration."""
    result = Figure4Result(spec=spec)
    for i in range(spec.runs):
        result.runs.append(run_figure4_once(spec, run_index=i))
    return result


def spec_for_subfigure(sub: str, **overrides) -> Figure4Spec:
    """The spec of paper sub-figure ``"a"``/``"b"``/``"c"``/``"d"``."""
    u = {"a": 4, "b": 8, "c": 16, "d": 32}[sub.lower()]
    return replace(Figure4Spec(u_procs=u), **overrides)
