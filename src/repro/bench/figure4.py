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
from repro.bench.reporting import summarize_runs
from repro.core.coupler import CoupledSimulation
from repro.core.exporter import ExportDecision
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
        total = sum(self.decisions.values())
        return self.decisions.get("skip", 0) / total if total else 0.0

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


def optimal_iteration_of(records: list, cutoff_ts: float | None = None) -> int | None:
    """First iteration after which no export is needlessly buffered.

    In the optimal state only matched data objects are copied
    (decision ``send``); everything else is skipped.  Returns the index
    (0-based) of the first export of that steady tail, or ``None`` if
    it is never reached.

    *cutoff_ts* bounds the scan: exports after the last request's
    timestamp can never be skipped (no future answer exists to rule
    them out), so they are excluded — otherwise every finite run would
    trivially end non-optimal.
    """
    considered = [
        (i, rec)
        for i, rec in enumerate(records)
        if cutoff_ts is None or rec.ts <= cutoff_ts
    ]
    if not considered:
        return None
    last_buffer = None
    for i, rec in considered:
        if rec.decision is ExportDecision.BUFFER:
            last_buffer = i
    if last_buffer is None:
        return 0
    if last_buffer >= considered[-1][0]:
        return None
    return last_buffer + 1


def run_figure4_once(spec: Figure4Spec, run_index: int = 0) -> Figure4Run:
    """Execute one run and collect the ``p_s`` series and counters."""
    result = spec.scenario(seed=spec.seed * 1000 + run_index).run()
    stats = result.context("F", spec.slow_rank).stats
    records = stats.export_records
    ledger = result.buffer_stats("F", spec.slow_rank, "f")
    return Figure4Run(
        series=[r.cost for r in records],
        decisions=stats.decisions(),
        t_ub=ledger.t_ub,
        unnecessary_total=ledger.unnecessary_total_time,
        buddy_messages=result.paper_metrics.buddy_helps_sent,
        optimal_iteration=optimal_iteration_of(
            records, cutoff_ts=spec.n_requests * spec.request_period
        ),
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
