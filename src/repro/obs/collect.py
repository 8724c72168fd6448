"""Post-run metric collection: walk a finished simulation into a registry.

This is what keeps observability off the hot path: the DES kernel,
vMPI backends, match engine, exporter/importer, reps, buddy-help and
fault layers all keep *plain attribute counters* (one integer add at
the site, no registry lookups, no label hashing).  After the run,
:func:`collect_metrics` reads them into a
:class:`~repro.obs.metrics.MetricsRegistry` under the stable names
documented in ``docs/observability.md``.

Collection is getattr-defensive on purpose: the DES and live runtimes
share most of their shape but not all of it (the live runtime has no
virtual-time kernel, fault-free runs have no fault stats), and a
counter that does not exist is simply not reported.
"""

from __future__ import annotations

from typing import Any

from repro.obs.metrics import MetricsRegistry

#: Aggregate-case keys reported under ``rep.aggregate_cases``.
AGGREGATE_CASES = (
    "all_match",
    "all_no_match",
    "all_pending",
    "pending_match",
    "pending_no_match",
)


def _collect_kernel(sim: Any, reg: MetricsRegistry) -> None:
    kernel = getattr(sim, "sim", sim)
    counters = getattr(kernel, "kernel_counters", None)
    if not callable(counters):
        return
    kc = counters()
    reg.counter("des.events.scheduled", lane="heap").inc(kc["heap_scheduled"])
    reg.counter("des.events.scheduled", lane="fast").inc(kc["fast_lane_scheduled"])
    reg.counter("des.events.dispatched").inc(kc["dispatched"])
    reg.counter("des.events.cancelled").inc(kc["cancelled"])


def _collect_net(sim: Any, reg: MetricsRegistry) -> None:
    planes = (
        ("ctl", "ctl_messages", "ctl_bytes"),
        ("data", "data_messages", "data_bytes"),
    )
    for plane, msg_attr, byte_attr in planes:
        msgs = getattr(sim, msg_attr, None)
        if msgs is None:
            continue
        reg.counter("net.messages", plane=plane).inc(int(msgs))
        reg.counter("net.bytes", plane=plane).inc(int(getattr(sim, byte_attr, 0)))
    if getattr(sim, "retransmissions", None) is not None:
        reg.counter("resilience.retransmissions").inc(int(sim.retransmissions))
        reg.counter("resilience.dup_discards").inc(int(getattr(sim, "dup_discards", 0)))


def _collect_faults(sim: Any, reg: MetricsRegistry) -> None:
    network = getattr(getattr(sim, "world", None), "network", None)
    stats = getattr(network, "stats", None)
    if stats is None:
        return
    counts = stats.as_dict()
    for key in ("eligible", "dropped", "duplicated", "delayed", "reordered"):
        reg.counter(f"faults.{key}").inc(counts[key])


def _collect_vmpi(prog: Any, reg: MetricsRegistry) -> None:
    name = prog.name
    for comm in getattr(prog, "comms", ()) or ():
        sent = int(getattr(comm, "sent_messages", 0))
        if sent:
            reg.counter("vmpi.messages.sent", program=name).inc(sent)
        received = int(getattr(comm, "received_messages", 0))
        if received:
            reg.counter("vmpi.messages.received", program=name).inc(received)
        for kind in ("p2p", "coll"):
            label = "p2p" if kind == "p2p" else "collective"
            msgs = int(getattr(comm, f"{kind}_messages_sent", 0))
            if msgs:
                reg.counter("vmpi.messages.sent.by_kind", program=name,
                            kind=label).inc(msgs)
            nbytes = int(getattr(comm, f"{kind}_bytes_sent", 0))
            if nbytes:
                reg.counter("vmpi.bytes.sent", program=name, kind=label).inc(nbytes)


def _collect_rep(prog: Any, reg: MetricsRegistry) -> None:
    rep = getattr(prog, "exp_rep", None)
    if rep is not None:
        name = prog.name
        reg.counter("rep.requests", program=name).inc(
            int(getattr(rep, "requests_seen", 0))
        )
        reg.counter("rep.finalized", program=name).inc(
            int(getattr(rep, "finalized_count", 0))
        )
        reg.counter("rep.duplicate_requests", program=name).inc(
            int(getattr(rep, "duplicate_requests", 0))
        )
        reg.counter("rep.cached_answers_served", program=name).inc(
            int(getattr(rep, "cached_answers_served", 0))
        )
        reg.counter("buddy.helps_sent", program=name).inc(
            int(getattr(rep, "buddy_messages_sent", 0))
        )
        counts = getattr(rep, "aggregate_case_counts", None)
        cases = counts() if callable(counts) else getattr(rep, "aggregate_cases", {})
        for case, count in cases.items():
            reg.counter("rep.aggregate_cases", program=name, case=case).inc(int(count))
    imp = getattr(prog, "imp_rep", None)
    if imp is not None:
        reg.counter("rep.forwarded", program=prog.name).inc(
            int(getattr(imp, "forwarded_count", 0))
        )


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

    for region, st in getattr(ctx, "export_states", {}).items():
        if not getattr(st, "is_connected", False):
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
        for cid, cst in getattr(st, "connections", {}).items():
            engine = getattr(cst, "engine", None)
            if engine is None:
                continue
            for outcome, attr in (
                ("match", "match_count"),
                ("no_match", "no_match_count"),
                ("pending", "pending_count"),
            ):
                count = int(getattr(engine, attr, 0))
                if count:
                    reg.counter(
                        "match.evaluations",
                        program=program,
                        rank=rank,
                        connection=cid,
                        outcome=outcome,
                    ).inc(count)

    for region, ist in getattr(ctx, "import_states", {}).items():
        labels = {"program": program, "rank": rank, "region": region}
        match_count = int(getattr(ist, "match_count", 0))
        no_match = int(getattr(ist, "no_match_count", 0))
        if match_count:
            reg.counter("import.completed", outcome="match", **labels).inc(match_count)
        if no_match:
            reg.counter("import.completed", outcome="no_match", **labels).inc(no_match)
        latency = reg.histogram("import.latency", program=program, rank=rank)
        for rec in getattr(ist, "records", ()):
            if rec.completed_at is not None:
                latency.observe(rec.latency)


def collect_metrics(sim: Any, registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Fill *registry* (a fresh one by default) from a finished run.

    *sim* is a :class:`~repro.core.coupler.CoupledSimulation`,
    :class:`~repro.core.live.LiveCoupledSimulation`, or a bare
    :class:`~repro.des.core.Simulator` (kernel counters only).
    """
    reg = registry if registry is not None else MetricsRegistry()
    _collect_kernel(sim, reg)
    _collect_net(sim, reg)
    _collect_faults(sim, reg)
    backend = getattr(sim, "match_backend", None)
    if backend is not None:
        # Which engine produced the match.evaluations counters; the
        # value is 1 and the information lives in the label, so reports
        # from different backends stay diffable.
        reg.gauge("match.backend", backend=str(backend)).set(1.0)
    for prog in getattr(sim, "_programs", {}).values():
        _collect_vmpi(prog, reg)
        _collect_rep(prog, reg)
        for ctx in getattr(prog, "contexts", []):
            _collect_context(ctx, reg)
    return reg
