"""The Figure-3 buffering scenarios.

Figure 3 of the paper contrasts the two relative-speed cases:

* **(a) importer slower**: every newly generated object passes beyond
  the latest acceptable region before the next request arrives, so it
  must be buffered — but the exporter is not the bottleneck, so the
  coupled system's performance is unaffected.
* **(b) exporter slower**: objects land *inside* open acceptable
  regions; each one is buffered as the new best candidate and the
  previous candidate freed.  Now the buffering cost sits on the
  system's critical path — this is the case buddy-help attacks.

These runners run scenarios ``fig3a`` and ``fig3b`` of
:mod:`repro.scenarios` — small, deterministic coupled runs of each
case — and report the buffering counters, so the benchmarks can print
the figure's story as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.rows import buffered_fraction, fold_run, skip_fraction
from repro.core.buffers import BufferStats
from repro.scenarios import build


@dataclass
class BufferingScenarioResult:
    """Outcome of one Figure-3 scenario run."""

    name: str
    exports: int
    requests: int
    buffer_stats: BufferStats
    decisions: dict[str, int]
    exporter_export_time_total: float
    sim_time: float

    @property
    def buffered_fraction(self) -> float:
        """Fraction of exports that were buffered (memcpy paid)."""
        return buffered_fraction(self.decisions)

    @property
    def skip_fraction(self) -> float:
        """Fraction of exports whose memcpy was skipped."""
        return skip_fraction(self.decisions)


def _run_scenario(
    name: str, scenario: str, exports: int, buddy_help: bool
) -> BufferingScenarioResult:
    result = build(scenario, {"exports": exports, "buddy_help": buddy_help}).run()
    fold = fold_run(result)
    return BufferingScenarioResult(
        name=name,
        exports=exports,
        requests=len(fold.answers[0]),
        buffer_stats=fold.ledger,
        decisions=fold.decisions,
        exporter_export_time_total=fold.export_time,
        sim_time=result.sim_time,
    )


def run_importer_slower(
    exports: int = 200, buddy_help: bool = True
) -> BufferingScenarioResult:
    """Figure 3(a): the importer lags; every export must be buffered.

    Requests arrive long after the exporter has passed them, so no
    request is ever PENDING at the exporter and buddy-help has nothing
    to do — ``buffered_fraction`` stays ≈ 1 regardless of the flag.
    """
    return _run_scenario("importer-slower", "fig3a", exports, buddy_help)


def run_exporter_slower(
    exports: int = 200, buddy_help: bool = True
) -> BufferingScenarioResult:
    """Figure 3(b): the exporter lags; requests wait inside the stream.

    With buddy-help the exporter processes skip everything the faster
    peer's answers rule out; without it they churn candidate buffers
    (compare ``skip_fraction`` and ``buffer_stats.t_ub`` between the
    two flags).
    """
    return _run_scenario("exporter-slower", "fig3b", exports, buddy_help)
