"""Scripted event-trace scenarios: Figures 5, 7 and 8 (and the
Figure-6 optimal-state predicate).

The paper explains buddy-help with line-by-line traces of the slow
process ``p_s``.  :class:`ScriptedProcess` drives the export-side state
machine directly (no DES, no second program) through exactly the event
sequences of the figures and records the framework's decisions in the
paper's own notation, so the benchmark output can be compared line by
line with the publication:

* Figure 5 — ``REGL 2.5``, requests at 20 and 40: the skip run grows
  from 4 memcpys to 7 as buddy-help takes hold.
* Figure 7 — ``REGL 5.0`` *with* buddy-help: every non-match export in
  the acceptable region is skipped.
* Figure 8 — same configuration *without* buddy-help: every in-region
  export is buffered and the previous candidate freed (the churn that
  Eq. 1 charges as ``T_i``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core import spine
from repro.core.config import ConnectionSpec, Endpoint
from repro.core.exporter import ExportDecision, RegionExportState
from repro.core.spine import PaperFold, ProtocolEvent
from repro.match.policies import MatchPolicy, PolicyKind
from repro.match.result import FinalAnswer, MatchKind
from repro.util import tracing
from repro.util.tracing import TraceEvent, Tracer, format_trace


def _connection(tolerance: float, disjoint: bool = True) -> ConnectionSpec:
    return ConnectionSpec(
        exporter=Endpoint("F", "D"),
        importer=Endpoint("U", "D"),
        policy=MatchPolicy(PolicyKind.REGL, tolerance),
        disjoint_regions=disjoint,
    )


class ScriptedProcess:
    """Drives one slow exporter process through a scripted event order.

    Announces the runtime's protocol events to the runtime's paper fold,
    with a hand-written clock (one tick per event) so traces are
    position-exact.
    """

    def __init__(self, tolerance: float, nbytes: int = 2 * 1024 * 1024) -> None:
        self.conn = _connection(tolerance)
        self.cid = self.conn.connection_id
        self.state = RegionExportState("D", [self.conn])
        self.nbytes = nbytes
        self.tracer = Tracer()
        self._lines = PaperFold(self.tracer).handlers()
        self.clock = 0.0
        self.who = "F.p_s"

    def _tick(self) -> float:
        self.clock += 1.0
        return self.clock

    def _announce(self, kind: str, now: float, **fields: Any) -> None:
        self._lines[kind](ProtocolEvent(kind, self.who, now, self.cid, **fields))

    # -- scripted events ----------------------------------------------------
    def export(self, ts: float) -> ExportDecision:
        """``p_s`` exports the data object at *ts*."""
        now = self._tick()
        outcome = self.state.on_export(ts, self.nbytes, memcpy_cost=1.0)
        self._announce(spine.EXPORT, now, region="D", ts=ts, decision=outcome)
        if outcome.decision is ExportDecision.SEND:
            self._send(now, ts)
        for _cid, m in outcome.post_sends:
            self._send(now, m)
        self._evict(now)
        return outcome.decision

    def _send(self, now: float, ts: float) -> None:
        """Record a transfer and mark the buffer entry sent."""
        self.state.buffer.mark_sent(ts)
        self._announce(spine.EXPORT_SEND, now, ts=ts)

    def request(self, ts: float) -> None:
        """The rep forwards the importer's request for *ts*."""
        now = self._tick()
        self._announce(spine.REQUEST_RECV, now, request=ts)
        outcome = self.state.on_request(self.cid, ts)
        self._announce(spine.MATCH, now, request=ts, decision=outcome.response)
        if outcome.applied is not None and outcome.applied.send_now is not None:
            self._send(now, outcome.applied.send_now)
        self._evict(now)

    def buddy(self, request_ts: float, matched_ts: float | None) -> None:
        """The rep disseminates a final answer (buddy-help)."""
        now = self._tick()
        if matched_ts is None:
            answer = FinalAnswer(request_ts=request_ts, kind=MatchKind.NO_MATCH)
        else:
            answer = FinalAnswer(
                request_ts=request_ts, kind=MatchKind.MATCH, matched_ts=matched_ts
            )
        self._announce(spine.BUDDY_RECV, now, request=request_ts, decision=answer)
        applied = self.state.on_buddy_answer(self.cid, answer)
        if applied.send_now is not None:
            self._send(now, applied.send_now)
        self._evict(now)

    def _evict(self, now: float) -> None:
        evicted = self.state.collect_evictions()
        if evicted:
            self._announce(spine.EVICT, now, ts=evicted[-1].ts, decision=evicted)


@dataclass
class TraceScenario:
    """A named scripted scenario with its recorded trace."""

    name: str
    events: list[TraceEvent]
    process: ScriptedProcess

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


def scenario_fig5() -> TraceScenario:
    """Figure 5: REGL 2.5, requests at 20 and 40 — skips grow 4 → 7.

    The paper's timeline: ``p_s`` exports 1.6 … 14.6 (all buffered),
    receives the request for 20 (PENDING, evict below 17.5), then
    buddy-help ``{D@20, YES, D@19.6}`` — exports 15.6 … 18.6 are
    skipped, 19.6 buffered and sent.  The pattern repeats for request
    40 with a longer skip run (32.6 … 38.6).
    """
    p = ScriptedProcess(tolerance=2.5)
    for k in range(14):  # 1.6 .. 14.6
        p.export(1.6 + k)
    p.request(20.0)
    p.buddy(20.0, 19.6)
    for k in range(14, 31):  # 15.6 .. 31.6  (19.6 is the match)
        p.export(1.6 + k)
    p.request(40.0)
    p.buddy(40.0, 39.6)
    for k in range(31, 40):  # 32.6 .. 40.6  (39.6 is the match)
        p.export(1.6 + k)
    return TraceScenario(name="figure5", events=list(p.tracer.events), process=p)


def scenario_fig7_with_buddy() -> TraceScenario:
    """Figure 7: REGL 5.0 with buddy-help — no in-region churn at all."""
    p = ScriptedProcess(tolerance=5.0)
    for k in range(3):  # 1.6, 2.6, 3.6
        p.export(1.6 + k)
    p.request(10.0)
    p.buddy(10.0, 9.6)
    for k in range(3, 10):  # 4.6 .. 10.6  (9.6 is the match)
        p.export(1.6 + k)
    return TraceScenario(name="figure7", events=list(p.tracer.events), process=p)


def scenario_fig8_without_buddy() -> TraceScenario:
    """Figure 8: same run without buddy-help — buffer-and-replace churn.

    4.6 is still skipped (below the acceptable region), but every
    export inside [5.0, 10.0] must be buffered as the new best
    candidate, freeing the previous one; the match is only identified
    when 10.6 falls outside the region.
    """
    p = ScriptedProcess(tolerance=5.0)
    for k in range(3):
        p.export(1.6 + k)
    p.request(10.0)
    # No buddy message: p_s discovers the match on its own at 10.6.
    for k in range(3, 10):
        p.export(1.6 + k)
    return TraceScenario(name="figure8", events=list(p.tracer.events), process=p)


def optimal_state_reached(records, window: int = 20) -> bool:
    """Figure 6 predicate: is the tail in the optimal state?

    Over the last *window* export records, only matched data may have
    been copied: every decision is ``skip`` except ``send``.
    """
    tail = list(records)[-window:]
    if not tail:
        return False
    return all(
        r.decision in (ExportDecision.SKIP, ExportDecision.SEND) for r in tail
    ) and any(r.decision is ExportDecision.SEND for r in tail)
