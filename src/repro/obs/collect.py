"""Post-run metric collection: walk a finished simulation into a registry.

This is what keeps observability off the hot path: the DES kernel,
vMPI backends, match engine, exporter/importer, reps, buddy-help and
fault layers all keep *plain attribute counters* (one integer add at
the site, no registry lookups, no label hashing).  After the run,
:func:`collect_metrics` reads them into a
:class:`~repro.obs.metrics.MetricsRegistry` under the stable names
documented in ``docs/observability.md``.

Both runtimes are one :class:`~repro.core.protocol.ProtocolDriver`, and
collection reads its programs, reps, communicators, contexts and
engines by attribute.  Two sources exist only on the DES, and are read
by name on a DES run: the kernel's ``sim.sim.kernel_counters()``
(``des.*``) and, when ``options.fault_plan`` is set, the faulty
network's ``sim.world.network.stats`` (``faults.*``).
"""

from __future__ import annotations

from typing import Any

from repro.core.coupler import CoupledSimulation
from repro.obs.metrics import MetricsRegistry

#: Aggregate-case keys reported under ``rep.aggregate_cases``.
AGGREGATE_CASES = (
    "all_match",
    "all_no_match",
    "all_pending",
    "pending_match",
    "pending_no_match",
)


def fault_stats(sim: Any) -> dict[str, Any] | None:
    """What the fault layer did: a DES run with a fault plan only."""
    if isinstance(sim, CoupledSimulation) and sim.options.fault_plan is not None:
        return sim.world.network.stats.as_dict()
    return None


def _collect_des(sim: Any, reg: MetricsRegistry) -> None:
    kc = sim.sim.kernel_counters()
    reg.counter("des.events.scheduled", lane="heap").inc(kc["heap_scheduled"])
    reg.counter("des.events.scheduled", lane="fast").inc(kc["fast_lane_scheduled"])
    reg.counter("des.events.dispatched").inc(kc["dispatched"])
    reg.counter("des.events.cancelled").inc(kc["cancelled"])
    faults = fault_stats(sim)
    if faults is not None:
        for key in ("eligible", "dropped", "duplicated", "delayed", "reordered"):
            reg.counter(f"faults.{key}").inc(faults[key])


def _collect_net(sim: Any, reg: MetricsRegistry) -> None:
    # ``<plane>_messages``/``<plane>_bytes`` are wire traffic; the rest
    # of the run counters are resilience counters.
    for name, value in sim.run_counters().items():
        plane, _, unit = name.partition("_")
        if unit in ("messages", "bytes"):
            reg.counter(f"net.{unit}", plane=plane).inc(value)
        else:
            reg.counter(f"resilience.{name}").inc(value)


def _collect_vmpi(prog: Any, reg: MetricsRegistry) -> None:
    name = prog.name
    for comm in prog.comms:
        sent = comm.sent_messages
        if sent:
            reg.counter("vmpi.messages.sent", program=name).inc(sent)
        received = comm.received_messages
        if received:
            reg.counter("vmpi.messages.received", program=name).inc(received)
        for label, msgs, nbytes in (
            ("p2p", comm.p2p_messages_sent, comm.p2p_bytes_sent),
            ("collective", comm.coll_messages_sent, comm.coll_bytes_sent),
        ):
            if msgs:
                reg.counter("vmpi.messages.sent.by_kind", program=name,
                            kind=label).inc(msgs)
            if nbytes:
                reg.counter("vmpi.bytes.sent", program=name, kind=label).inc(nbytes)


def _collect_rep(prog: Any, reg: MetricsRegistry) -> None:
    name = prog.name
    rep = prog.exp_rep
    if rep is not None:
        reg.counter("rep.requests", program=name).inc(rep.requests_seen)
        reg.counter("rep.finalized", program=name).inc(rep.finalized_count)
        reg.counter("rep.duplicate_requests", program=name).inc(rep.duplicate_requests)
        reg.counter("rep.cached_answers_served", program=name).inc(
            rep.cached_answers_served
        )
        reg.counter("buddy.helps_sent", program=name).inc(rep.buddy_messages_sent)
        for case, count in rep.aggregate_case_counts().items():
            reg.counter("rep.aggregate_cases", program=name, case=case).inc(count)
    if prog.imp_rep is not None:
        reg.counter("rep.forwarded", program=name).inc(prog.imp_rep.forwarded_count)


def _collect_context(ctx: Any, reg: MetricsRegistry) -> None:
    program, rank, who = ctx.program, ctx.rank, ctx.who
    stats = ctx.stats

    reg.gauge("process.compute_time", program=program, rank=rank).set(
        stats.compute_time
    )
    reg.gauge("process.backpressure_time", program=program, rank=rank).set(
        stats.backpressure_time
    )

    # Tallied first, then one registry lookup per outcome; ``list.count``
    # matches enum members by identity, so no call is made per record.
    decisions = [rec.decision for rec in stats.export_records]
    for outcome in type(decisions[0]) if decisions else ():
        count = decisions.count(outcome)
        if count:
            reg.counter(
                "export.decisions", program=program, rank=rank, outcome=str(outcome)
            ).inc(count)

    reg.counter("buddy.answers_received", program=program, rank=rank).inc(
        stats.buddy_answers_received
    )
    if stats.buddy_skips:
        reg.counter("buddy.skips", program=program, rank=rank).inc(stats.buddy_skips)
        reg.gauge("buddy.saved_time", program=program, rank=rank).set(
            stats.buddy_saved_time
        )
    if stats.buddy_lead_times:
        lead_hist = reg.histogram("buddy.lead_time", program=program, rank=rank)
        for _export_ts, _request_ts, lead in stats.buddy_lead_times:
            lead_hist.observe(float(lead))

    for region, st in ctx.export_states.items():
        if not st.is_connected:
            continue
        bstats = st.buffer.stats()
        labels = {"program": program, "rank": rank, "region": region}
        reg.counter("buffer.buffered", **labels).inc(bstats.buffered_count)
        reg.counter("buffer.sent", **labels).inc(bstats.sent_count)
        reg.counter("buffer.freed_unsent", **labels).inc(bstats.freed_unsent_count)
        peak = reg.gauge("buffer.peak_bytes", **labels)
        peak.set(float(bstats.peak_bytes))
        reg.gauge("buffer.total_memcpy_time", **labels).set(bstats.total_memcpy_time)
        reg.gauge("buffer.t_ub", **labels).set(bstats.t_ub)
        for cid, cst in st.connections.items():
            engine = cst.engine
            for outcome, count in (
                ("match", engine.match_count),
                ("no_match", engine.no_match_count),
                ("pending", engine.pending_count),
            ):
                if count:
                    reg.counter(
                        "match.evaluations",
                        program=program,
                        rank=rank,
                        connection=cid,
                        outcome=outcome,
                    ).inc(count)

    for region, ist in ctx.import_states.items():
        labels = {"program": program, "rank": rank, "region": region}
        if ist.match_count:
            reg.counter("import.completed", outcome="match", **labels).inc(ist.match_count)
        if ist.no_match_count:
            reg.counter("import.completed", outcome="no_match", **labels).inc(
                ist.no_match_count
            )
        latency = reg.histogram("import.latency", program=program, rank=rank)
        for rec in ist.records:
            if rec.completed_at is not None:
                latency.observe(rec.latency)


def collect_metrics(sim: Any, registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Fill *registry* (a fresh one by default) from a finished run.

    *sim* is a :class:`~repro.core.coupler.CoupledSimulation` or
    :class:`~repro.core.live.LiveCoupledSimulation`.
    """
    reg = registry if registry is not None else MetricsRegistry()
    if isinstance(sim, CoupledSimulation):
        _collect_des(sim, reg)
    _collect_net(sim, reg)
    # Which engine produced the match.evaluations counters; the value is
    # 1 and the information lives in the label, so reports from
    # different backends stay diffable.
    reg.gauge("match.backend", backend=str(sim.match_backend)).set(1.0)
    for prog in sim._programs.values():
        _collect_vmpi(prog, reg)
        _collect_rep(prog, reg)
        for ctx in prog.contexts:
            _collect_context(ctx, reg)
    return reg
