"""Event traces of Figures 5, 7 and 8, from the real protocol.

The paper explains buddy-help with line-by-line traces of the slow
process ``p_s``.  Each figure is a run of a registered scenario
(:mod:`repro.scenarios`) with a tracer on ``p_s``, so every line comes
from the shipped runtime and reads as in the publication:

* Figure 5 — ``fig5``, ``REGL 2.5``, requests for 20 and 40: the skip
  run grows from 4 memcpys to 7 as buddy-help takes hold.
* Figure 7 — ``fig7`` *with* buddy-help: every non-match export in the
  acceptable region is skipped.
* Figure 8 — ``fig7 -p buddy_help=false``: every in-region export is
  buffered and the previous candidate freed (the churn that Eq. 1
  charges as ``T_i``); ``p_s`` finds the match itself at 10.6 and
  replies ``MATCH`` on the slow path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.bench.rows import fold_run
from repro.scenarios import build
from repro.util import tracing
from repro.util.tracing import TraceEvent, Tracer, format_trace

#: Trace identity of ``p_s``: rank 1 of the two-rank exporter ``F``.
_P_S = "F.p1"


@dataclass
class TraceScenario:
    """A figure's trace: ``p_s``'s events and Eq.-1 ledger of one run."""

    name: str
    events: list[TraceEvent]
    #: ``p_s``'s in-region unnecessary buffering time (unit memcpys).
    t_ub: float

    def rendered(self, numbered: bool = True) -> str:
        """The trace in the paper's Figure-5/7/8 notation."""
        return format_trace(self.events, object_name="D", numbered=numbered)

    def decisions(self) -> list[str]:
        """Just the export decisions, in order (for assertions)."""
        wanted = {tracing.EXPORT_MEMCPY, tracing.EXPORT_SKIP, tracing.EXPORT_SEND}
        return [e.kind for e in self.events if e.kind in wanted]

    def skip_count(self) -> int:
        """Number of skipped memcpys."""
        return sum(1 for e in self.events if e.kind == tracing.EXPORT_SKIP)

    def memcpy_count(self) -> int:
        """Number of performed memcpys."""
        return sum(1 for e in self.events if e.kind == tracing.EXPORT_MEMCPY)


def _trace(name: str, scenario: str, **params: Any) -> TraceScenario:
    result = build(scenario, params).run(tracer=Tracer(lambda e: e.who == _P_S))
    return TraceScenario(name, list(result.tracer.events), fold_run(result).ledger.t_ub)


def scenario_fig5() -> TraceScenario:
    """Figure 5: REGL 2.5, requests for 20 and 40 — skips grow 4 → 7."""
    return _trace("figure5", "fig5")


def scenario_fig7_with_buddy() -> TraceScenario:
    """Figure 7: REGL 5.0 with buddy-help — no in-region churn at all."""
    return _trace("figure7", "fig7")


def scenario_fig8_without_buddy() -> TraceScenario:
    """Figure 8: the Figure-7 run without buddy-help — buffer-and-replace churn."""
    return _trace("figure8", "fig7", buddy_help=False)
