"""First-class paper metrics: Eq. 1–2 ``T_ub``, buddy savings, lags.

The quantities the paper argues with (see ``docs/paper_mapping.md``):

* **T_i / T_ub** (Eq. 1–2): the in-region unnecessary buffering time —
  memcpy time spent buffering objects inside a request's acceptable
  region that were *not* the final match.  The
  :class:`~repro.core.buffers.BufferManager` accrues these exactly;
  this module rolls them up per rank and per program.
* **Buddy-help savings**: the memcpy time a process *avoided* because
  a skip was enabled by buddy-help knowledge (an answer its own export
  stream had not yet reached).  ``t_ub_no_help_estimate`` is the
  counterfactual: what the run's buffering waste would have been had
  every buddy-enabled skip been a buffered-then-freed candidate
  instead (the Figure-8 churn) — ``T_ub + buddy_saved_time``.
* **Slowest-process lag**: per program, the spread between the
  most-loaded and least-loaded rank's compute time (the paper's
  ``p_s`` is the rank with the largest lag).
* **PENDING-resolution latency**: virtual time from a request reaching
  a process that answered PENDING to the rep finalizing that request —
  how long the slow path stays open.  Computed from trace events when
  a tracer recorded the run, else estimated from importer-side answer
  latencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.util import tracing
from repro.util.stats import OnlineStats
from repro.util.tracing import Tracer


@dataclass(frozen=True)
class PaperMetrics:
    """The paper's headline quantities for one finished run."""

    #: Eq. 2 per exporting rank: ``"F.p1" -> seconds``.
    t_ub_by_rank: dict[str, float]
    #: Eq. 2 summed over every exporting rank.
    t_ub_total: float
    #: Eq. 1 ledger merged over ranks: window index -> ``T_i``.
    t_by_window: dict[int, float]
    #: Memcpy time skipped thanks to buddy-help, per rank and total.
    buddy_saved_by_rank: dict[str, float]
    buddy_saved_total: float
    #: Counterfactual no-help waste: ``t_ub_total + buddy_saved_total``.
    t_ub_no_help_estimate: float
    #: Buddy-help traffic: answers disseminated / received / skips enabled.
    buddy_helps_sent: int
    buddy_answers_received: int
    buddy_skips: int
    #: Per program: slowest minus fastest rank compute time.
    slowest_lag_by_program: dict[str, float]
    #: PENDING-resolution latency summary (virtual seconds).
    pending_resolution: dict[str, float] = field(default_factory=dict)
    #: Where the latency came from: "trace" or "import_records".
    pending_resolution_source: str = "none"

    @property
    def t_ub_saving(self) -> float:
        """What buddy-help saved vs. the no-help counterfactual."""
        return self.t_ub_no_help_estimate - self.t_ub_total

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "t_ub_by_rank": dict(sorted(self.t_ub_by_rank.items())),
            "t_ub_total": self.t_ub_total,
            "t_by_window": {str(k): v for k, v in sorted(self.t_by_window.items())},
            "buddy_saved_by_rank": dict(sorted(self.buddy_saved_by_rank.items())),
            "buddy_saved_total": self.buddy_saved_total,
            "t_ub_no_help_estimate": self.t_ub_no_help_estimate,
            "t_ub_saving": self.t_ub_saving,
            "buddy_helps_sent": self.buddy_helps_sent,
            "buddy_answers_received": self.buddy_answers_received,
            "buddy_skips": self.buddy_skips,
            "slowest_lag_by_program": dict(sorted(self.slowest_lag_by_program.items())),
            "pending_resolution": dict(self.pending_resolution),
            "pending_resolution_source": self.pending_resolution_source,
        }

    def render(self) -> str:
        """Paper-notation text summary."""
        lines = [
            f"T_ub (Eq. 2)               = {self.t_ub_total:.6g} s",
            f"T_ub without buddy-help    = {self.t_ub_no_help_estimate:.6g} s (estimate)",
            f"buddy-help saving          = {self.t_ub_saving:.6g} s",
            f"buddy-help messages        = {self.buddy_helps_sent} sent, "
            f"{self.buddy_answers_received} received, {self.buddy_skips} skips enabled",
        ]
        for who, t in sorted(self.t_ub_by_rank.items()):
            if t or self.buddy_saved_by_rank.get(who):
                saved = self.buddy_saved_by_rank.get(who, 0.0)
                lines.append(f"  T_i[{who}] = {t:.6g} s (saved {saved:.6g} s)")
        for prog, lag in sorted(self.slowest_lag_by_program.items()):
            lines.append(f"slowest-process lag [{prog}] = {lag:.6g} s")
        if self.pending_resolution.get("count"):
            pr = self.pending_resolution
            lines.append(
                f"PENDING resolution         = {pr['mean']:.6g} s mean over "
                f"{int(pr['count'])} requests (max {pr['max']:.6g} s, "
                f"source: {self.pending_resolution_source})"
            )
        return "\n".join(lines)


def _pending_latency_from_trace(tracer: Tracer) -> OnlineStats:
    """PENDING open-time per request, from the recorded event stream.

    A request — a ``(connection, request timestamp)`` pair — counts
    when at least one process replied ``PENDING`` to it; its latency
    runs from the first ``request_recv`` to the ``rep_finalize``
    carrying the final answer.
    """
    first_recv: dict[tuple[str | None, float], float] = {}
    went_pending: set[tuple[str | None, float]] = set()
    out = OnlineStats()
    for e in tracer.events:
        req = e.detail.get("request")
        if req is None:
            continue
        key = (e.detail.get("cid"), float(req))
        if e.kind == tracing.REQUEST_RECV:
            first_recv.setdefault(key, e.time)
        elif e.kind == tracing.REQUEST_REPLY:
            if str(e.detail.get("answer", "")).endswith("PENDING"):
                went_pending.add(key)
        elif e.kind == tracing.REP_FINALIZE and key in went_pending:
            went_pending.discard(key)
            if key in first_recv:
                out.add(e.time - first_recv.pop(key))
    return out


def _pending_latency_from_imports(sim: Any) -> OnlineStats:
    """Fallback: importer-side request→answer latency."""
    out = OnlineStats()
    for prog in getattr(sim, "_programs", {}).values():
        for ctx in getattr(prog, "contexts", []):
            for ist in getattr(ctx, "import_states", {}).values():
                for rec in ist.records:
                    if rec.answered_at is not None:
                        out.add(rec.answered_at - rec.issued_at)
    return out


def compute_paper_metrics(sim: Any, tracer: Tracer | None = None) -> PaperMetrics:
    """Roll the paper's quantities up from a finished simulation.

    *sim* is a :class:`~repro.core.coupler.CoupledSimulation` or
    :class:`~repro.core.live.LiveCoupledSimulation` after ``run()``;
    *tracer* defaults to the simulation's own tracer.  The Eq. 1–2 and
    buddy-saving numbers come from always-on protocol counters, so
    they are exact even for runs traced with a
    :class:`~repro.util.tracing.NullTracer`.
    """
    tracer = tracer if tracer is not None else getattr(sim, "tracer", Tracer())
    t_ub_by_rank: dict[str, float] = {}
    t_by_window: dict[int, float] = {}
    buddy_saved: dict[str, float] = {}
    buddy_answers = 0
    buddy_skips = 0
    helps_sent = 0
    lag: dict[str, float] = {}

    for prog in getattr(sim, "_programs", {}).values():
        rep = getattr(prog, "exp_rep", None)
        if rep is not None:
            helps_sent += int(getattr(rep, "buddy_messages_sent", 0))
        compute_times: list[float] = []
        for ctx in getattr(prog, "contexts", []):
            who = ctx.who
            stats = ctx.stats
            compute_times.append(stats.compute_time)
            buddy_answers += stats.buddy_answers_received
            skips = stats.buddy_skips
            saved = stats.buddy_saved_time
            buddy_skips += skips
            if skips or saved:
                buddy_saved[who] = buddy_saved.get(who, 0.0) + saved
            for st in getattr(ctx, "export_states", {}).values():
                if not st.is_connected:
                    continue
                bstats = st.buffer.stats()
                t_ub_by_rank[who] = t_ub_by_rank.get(who, 0.0) + bstats.t_ub
                for w, t in bstats.t_by_window.items():
                    t_by_window[w] = t_by_window.get(w, 0.0) + t
        if compute_times:
            lag[prog.name] = max(compute_times) - min(compute_times)

    t_ub_total = sum(t_ub_by_rank.values())
    saved_total = sum(buddy_saved.values())

    latency = _pending_latency_from_trace(tracer)
    source = "trace"
    if latency.count == 0:
        latency = _pending_latency_from_imports(sim)
        source = "import_records" if latency.count else "none"
    pending = (
        {
            "count": float(latency.count),
            "mean": latency.mean,
            "max": latency.maximum,
        }
        if latency.count
        else {}
    )

    return PaperMetrics(
        t_ub_by_rank=t_ub_by_rank,
        t_ub_total=t_ub_total,
        t_by_window=t_by_window,
        buddy_saved_by_rank=buddy_saved,
        buddy_saved_total=saved_total,
        t_ub_no_help_estimate=t_ub_total + saved_total,
        buddy_helps_sent=helps_sent,
        buddy_answers_received=buddy_answers,
        buddy_skips=buddy_skips,
        slowest_lag_by_program=lag,
        pending_resolution=pending,
        pending_resolution_source=source,
    )
