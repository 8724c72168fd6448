"""The event spine: each protocol decision is announced once.

:class:`~repro.core.protocol.ProtocolDriver` builds one
:class:`ProtocolEvent` per decision — nothing outside :mod:`repro.core`
does — and hands that same event to every fold watching the run:
:class:`PaperFold` (the Figure-5/7/8 :class:`~repro.util.tracing.Tracer`),
:class:`CausalFold` (the :class:`~repro.obs.trace.CausalLog`; it owns
the causal bookkeeping and returns the span context the outgoing wire
message carries), :class:`ProvenanceFold` (match and operation rows of a
provenance log), :class:`OperationFold` (the Property-1 log) and
the online sanitizer (:class:`repro.analysis.sanitizer.ProtocolSanitizer`).
The kind → paper line / causal span / provenance row / Property-1 op /
sanitizer rule table is in ``docs/observability.md``.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, NamedTuple, cast

from repro.core.exporter import ExportDecision
from repro.obs.trace import CausalLog, TraceContext
from repro.util import tracing

# -- event kinds ---------------------------------------------------------------
EXPORT = "export"  #: an export call decided (buffer, send or skip)
EXPORT_SEND = "export_send"  #: this rank's pieces of a match left
EVICT = "evict"  #: buffered entries freed past the eviction threshold
REQUEST_RECV = "request_recv"  #: an agent got the rep's forwarded request
MATCH = "match"  #: a process's match response
BUDDY_RECV = "buddy_recv"  #: an agent got a buddy-help answer
BUDDY_SKIP = "buddy_skip"  #: a skip only a buddy-help answer enabled
RESPONSE_RECV = "response_recv"  #: the exporter rep gathered a response
FINALIZE = "finalize"  #: the exporter rep aggregated the final answer
BUDDY_SEND = "buddy_send"  #: the exporter rep sent buddy-help to a rank
FAN_OUT = "fan_out"  #: the exporter rep forwarded a request to a rank
REP_FORWARD = "rep_forward"  #: the importer rep forwarded a request
ANSWER_RECV = "answer_recv"  #: the importer rep got the final answer
DELIVER = "deliver"  #: the importer rep answered a rank
IMPORT_REQUEST = "import_request"  #: a request posted (``import_begin``)
RETRANSMIT = "retransmit"  #: a request re-sent after its timeout
ANSWERED = "answered"  #: an importer consumed the final answer
IMPORT_COMPLETE = "import_complete"  #: an import returned
IMPORT_WAIT = "import_wait"  #: a wait on a posted request began
COMPUTE = "compute"  #: ``ctx.compute(seconds)``
COMPUTE_ELEMENTS = "compute_elements"  #: ``ctx.compute_elements(n, scale)``
DUP_DISCARD = "dup_discard"  #: a wire duplicate dropped by sequence number

KINDS = (
    EXPORT, EXPORT_SEND, EVICT, REQUEST_RECV, MATCH, BUDDY_RECV, BUDDY_SKIP,
    RESPONSE_RECV, FINALIZE, BUDDY_SEND, FAN_OUT, REP_FORWARD, ANSWER_RECV,
    DELIVER, IMPORT_REQUEST, RETRANSMIT, ANSWERED, IMPORT_COMPLETE,
    IMPORT_WAIT, COMPUTE, COMPUTE_ELEMENTS, DUP_DISCARD,
)


class ProtocolEvent(NamedTuple):
    """One announced protocol decision (a tuple: one is built per event,
    by :data:`new_event`)."""

    kind: str
    #: Acting process (``"F.p2"``) or rep (``"F.rep"``).
    who: str
    #: Run clock at the decision.
    time: float
    cid: str | None = None
    #: Timestamp of the request the decision is about.
    request: float | None = None
    program: str | None = None
    #: The acting rank, or the rank a rep directive targets.
    rank: int | None = None
    region: str | None = None
    #: Timestamp of the data object the decision is about.
    ts: float | None = None
    #: The decision: an export outcome, a match response, a final
    #: answer or the evicted entries.
    decision: Any = None
    #: The kind's remaining fields, in the order its folds read them.
    values: tuple[Any, ...] = ()
    #: Context of the wire message that caused the decision.
    cause: TraceContext | None = None


#: Builds a :class:`ProtocolEvent` from the tuple of all twelve fields,
#: in declaration order, in one C-level call (the class's own keyword
#: ``__new__`` is a Python frame more): ``new_event((kind, who, time,
#: cid, request, program, rank, region, ts, decision, values, cause))``.
new_event = cast(
    Callable[[tuple[Any, ...]], ProtocolEvent], partial(tuple.__new__, ProtocolEvent)
)

Handler = Callable[[ProtocolEvent], Any]


class Fold:
    """A consumer of the event stream: its method ``_<kind>`` reads the
    events of that kind, and it ignores every kind it has no method for."""

    def handlers(self) -> dict[str, Handler]:
        """Spine kind → this fold's handler."""
        return {k: getattr(self, f"_{k}") for k in KINDS if hasattr(self, f"_{k}")}


def _answer_detail(answer: Any, request: Any) -> dict[str, Any]:
    match = answer.matched_ts if answer.matched_ts is not None else request
    return {"answer": "YES" if answer.is_match else "NO", "match": match}


class PaperFold(Fold):
    """The paper-notation trace (Figures 5, 7, 8): one line per decision."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer

    def _export(self, ev: ProtocolEvent) -> None:
        record = self.tracer.record
        decision = ev.decision.decision
        if decision is ExportDecision.SKIP:
            record(tracing.EXPORT_SKIP, ev.who, ev.time, timestamp=ev.ts, region=ev.region)
        elif decision is not ExportDecision.NOOP:
            record(tracing.EXPORT_MEMCPY, ev.who, ev.time, timestamp=ev.ts)
        for entry in ev.decision.replaced:
            record(tracing.BUFFER_REMOVE, ev.who, ev.time, timestamp=entry.ts)

    def _export_send(self, ev: ProtocolEvent) -> None:
        self.tracer.record(tracing.EXPORT_SEND, ev.who, ev.time, timestamp=ev.ts)

    def _evict(self, ev: ProtocolEvent) -> None:
        self.tracer.record(
            tracing.BUFFER_REMOVE, ev.who, ev.time,
            timestamp=ev.ts, low=ev.decision[0].ts, high=ev.ts,
        )

    def _request_recv(self, ev: ProtocolEvent) -> None:
        self.tracer.record(
            tracing.REQUEST_RECV, ev.who, ev.time, cid=ev.cid, request=ev.request
        )

    def _match(self, ev: ProtocolEvent) -> None:
        latest = ev.decision.latest_export_ts
        self.tracer.record(
            tracing.REQUEST_REPLY, ev.who, ev.time,
            cid=ev.cid, request=ev.request, answer=str(ev.decision.kind),
            latest=None if latest == float("-inf") else latest,
        )

    def _buddy_recv(self, ev: ProtocolEvent) -> None:
        self.tracer.record(
            tracing.BUDDY_RECV, ev.who, ev.time,
            cid=ev.cid, request=ev.request, **_answer_detail(ev.decision, ev.request),
        )

    def _finalize(self, ev: ProtocolEvent) -> None:
        self.tracer.record(
            tracing.REP_FINALIZE, ev.who, ev.time,
            cid=ev.cid, request=ev.request, answer=str(ev.decision.kind),
        )

    def _buddy_send(self, ev: ProtocolEvent) -> None:
        self.tracer.record(
            tracing.BUDDY_SEND, ev.who, ev.time,
            request=ev.request, **_answer_detail(ev.decision, ev.request),
        )

    def _import_request(self, ev: ProtocolEvent) -> None:
        self.tracer.record(tracing.IMPORT_REQUEST, ev.who, ev.time, request=ev.request)

    def _retransmit(self, ev: ProtocolEvent) -> None:
        attempt, rto = ev.values
        self.tracer.record(
            tracing.RETRANSMIT, ev.who, ev.time,
            request=ev.request, attempt=attempt, rto=rto,
        )

    def _import_complete(self, ev: ProtocolEvent) -> None:
        if ev.values[0] is not None:  # NO_MATCH transfers nothing: no line
            self.tracer.record(tracing.IMPORT_COMPLETE, ev.who, ev.time, timestamp=ev.ts)

    def _dup_discard(self, ev: ProtocolEvent) -> None:
        msg, seq = ev.values
        self.tracer.record(tracing.DUP_DISCARD, ev.who, ev.time, msg=msg, seq=seq)


#: The attr keys of causal spans, in the order their values are passed.
_AT = ("connection", "request")
_AT_RANK = (*_AT, "rank")
_AT_KIND = (*_AT, "kind")
_AT_ATTEMPT = (*_AT, "attempt")
_AT_PIECES = (*_AT_KIND, "pieces")
_AT_MATCH = (*_AT_KIND, "rank")
_AT_SKIP = (*_AT, "export_ts", "lead")


class CausalFold(Fold):
    """The causal DAG, and the one owner of its bookkeeping.

    A span's parent is the span of the wire message that caused it;
    what no message carries is remembered here, per process
    ``(who, connection, request)`` — the import's root ``request``, the
    forwarded request a ``match`` answers, the ``buddy_recv`` a
    ``buddy_skip`` follows, the ``answered`` a ``complete`` follows —
    and per request ``(connection, request)``: the ``match`` spans the
    rep gathered (every one an ``aggregate`` parent), the first
    ``aggregate`` (a cached re-answer links to it) and the answer the
    importer rep received.  A handler returns its span's context, which
    the driver stamps onto the message the decision sends.
    """

    def __init__(self, log: CausalLog) -> None:
        self.log = log
        self._roots: dict[tuple[str, str, float], TraceContext] = {}
        self._forwards: dict[tuple[str, str, float], TraceContext | None] = {}
        self._buddy_spans: dict[tuple[str, str, float], TraceContext] = {}
        self._answered_spans: dict[tuple[str, str, float], TraceContext] = {}
        self._gathered: dict[tuple[str, float], list[int]] = {}
        self._aggregates: dict[tuple[str, float], TraceContext] = {}
        self._answers: dict[tuple[str, float], TraceContext] = {}

    def _span(
        self, ev: ProtocolEvent, name: str, cause: TraceContext | None,
        keys: tuple[str, ...], values: tuple[Any, ...], extra: tuple[int, ...] = (),
    ) -> TraceContext:
        """Record a span caused by *cause* (or rooted at the request key)
        whose attrs are *keys* → *values*, handed straight to the log's
        columns."""
        if cause is None:
            tid, parents = self.log.trace_for(ev.cid, ev.request), extra
        else:
            tid, parents = cause.trace_id, (cause.span_id, *extra)
        if extra:  # a gathered response may also be the cause
            parents = tuple(dict.fromkeys(parents))
        return self.log.append(tid, name, ev.who, ev.time, parents, keys, values)

    # -- importer processes ----------------------------------------------------
    def _import_request(self, ev: ProtocolEvent) -> TraceContext:
        tr = self._span(ev, "request", None, _AT_RANK, (ev.cid, ev.request, ev.rank))
        self._roots[(ev.who, ev.cid, ev.request)] = tr
        return tr

    def _retransmit(self, ev: ProtocolEvent) -> TraceContext:
        # The ORIGINAL trace id: one import's DAG survives the fault layer.
        root = self._roots.get((ev.who, ev.cid, ev.request))
        return self._span(
            ev, "retransmit", root, _AT_ATTEMPT, (ev.cid, ev.request, ev.values[0])
        )

    def _answered(self, ev: ProtocolEvent) -> TraceContext:
        key = (ev.who, ev.cid, ev.request)
        root, incoming = self._roots.get(key), ev.cause
        self._answered_spans[key] = span = self._span(
            ev, "answered", incoming if incoming is not None else root,
            _AT_KIND, (ev.cid, ev.request, str(ev.decision.kind)),
            () if incoming is None or root is None else (root.span_id,),
        )
        return span

    def _import_complete(self, ev: ProtocolEvent) -> None:
        span = self._answered_spans.pop((ev.who, ev.cid, ev.request), None)
        if span is not None:
            self._span(
                ev, "complete", span, _AT_PIECES,
                (ev.cid, ev.request, str(ev.decision.kind), ev.values[0] or 0),
            )

    # -- exporter processes ----------------------------------------------------
    def _request_recv(self, ev: ProtocolEvent) -> None:
        self._forwards[(ev.who, ev.cid, ev.request)] = ev.cause

    def _match(self, ev: ProtocolEvent) -> TraceContext:
        cause = self._forwards.get((ev.who, ev.cid, ev.request))
        return self._span(
            ev, "match", cause, _AT_MATCH,
            (ev.cid, ev.request, str(ev.decision.kind), ev.rank),
        )

    def _buddy_recv(self, ev: ProtocolEvent) -> TraceContext:
        span = self._span(ev, "buddy_recv", ev.cause, _AT_RANK, (ev.cid, ev.request, ev.rank))
        self._buddy_spans[(ev.who, ev.cid, ev.request)] = span
        return span

    def _buddy_skip(self, ev: ProtocolEvent) -> TraceContext:
        cause = self._buddy_spans.get((ev.who, ev.cid, ev.request))
        return self._span(
            ev, "buddy_skip", cause, _AT_SKIP,
            (ev.cid, ev.request, ev.ts, ev.values[0]),
        )

    # -- representatives -------------------------------------------------------
    def _rep_forward(self, ev: ProtocolEvent) -> TraceContext:
        return self._span(ev, "rep_forward", ev.cause, _AT, (ev.cid, ev.request))

    def _fan_out(self, ev: ProtocolEvent) -> TraceContext:
        return self._span(ev, "fan_out", ev.cause, _AT_RANK, (ev.cid, ev.request, ev.rank))

    def _response_recv(self, ev: ProtocolEvent) -> None:
        if ev.cause is not None:
            self._gathered.setdefault((ev.cid, ev.request), []).append(ev.cause.span_id)

    def _finalize(self, ev: ProtocolEvent) -> TraceContext:
        key = (ev.cid, ev.request)
        prior = self._aggregates.get(key)
        extra = tuple(self._gathered.pop(key, ()))
        keys, values = _AT_KIND, (ev.cid, ev.request, str(ev.decision.kind))
        if ev.values:
            keys, values = (*keys, "case", "finalizing_rank"), (*values, *ev.values)
        if prior is not None:
            extra = (prior.span_id, *extra)
            keys, values = (*keys, "cached"), (*values, True)
        tr = self._span(ev, "aggregate", ev.cause, keys, values, extra)
        self._aggregates.setdefault(key, tr)
        return tr

    def _buddy_send(self, ev: ProtocolEvent) -> TraceContext:
        agg = self._aggregates.get((ev.cid, ev.request))
        cause = agg if agg is not None else ev.cause
        return self._span(ev, "buddy_notify", cause, _AT_RANK, (ev.cid, ev.request, ev.rank))

    def _answer_recv(self, ev: ProtocolEvent) -> None:
        if ev.cause is not None:
            self._answers[(ev.cid, ev.request)] = ev.cause

    def _deliver(self, ev: ProtocolEvent) -> TraceContext:
        ans = self._answers.get((ev.cid, ev.request))
        extra = () if ans is None else (ans.span_id,)
        return self._span(
            ev, "answer", ev.cause, _AT_RANK, (ev.cid, ev.request, ev.rank), extra
        )


class ProvenanceFold(Fold):
    """Match and operation rows of a provenance log.  An operation row
    goes on its own process's columns (``ProvenanceRecorder.op_columns``):
    its kind on the kind list, its ``OP_FIELDS`` values of
    :mod:`repro.obs.prov`, in order, on that kind's value list."""

    def __init__(self, prov: Any, backend: str) -> None:
        self.prov = prov
        self.backend = backend
        self.op_columns = prov.op_columns

    def _match(self, ev: ProtocolEvent) -> None:
        r = ev.decision
        self.prov.on_match(
            ev.time, ev.cid, ev.rank, ev.request, str(r.kind), r.latest_export_ts,
            self.backend,
        )

    def _export(self, ev: ProtocolEvent) -> None:
        kinds, values = self.op_columns[ev.program, ev.rank]
        kinds.append("export")
        values["export"].extend((ev.region, ev.ts, ev.values[0]))

    def _import_request(self, ev: ProtocolEvent) -> None:
        kinds, values = self.op_columns[ev.program, ev.rank]
        kinds.append("import_begin")
        values["import_begin"].extend((ev.region, ev.request))

    def _import_wait(self, ev: ProtocolEvent) -> None:
        kinds, values = self.op_columns[ev.program, ev.rank]
        kinds.append("import_wait")
        values["import_wait"].extend((ev.region, ev.request))

    def _compute(self, ev: ProtocolEvent) -> None:
        kinds, values = self.op_columns[ev.program, ev.rank]
        kinds.append(ev.kind)
        values[ev.kind].extend(ev.values)

    _compute_elements = _compute


class OperationFold(Fold):
    """The Property-1 operation log."""

    def __init__(self, operation_log: Any) -> None:
        self.operation_log = operation_log

    def _export(self, ev: ProtocolEvent) -> None:
        self.operation_log.log(ev.program, ev.rank, "export", ev.region, ev.ts)

    def _import_request(self, ev: ProtocolEvent) -> None:
        self.operation_log.log(ev.program, ev.rank, "import", ev.region, ev.request)


def ignore(ev: ProtocolEvent) -> None:
    """The fold of a kind no subscriber reads: a site whose kind often
    has none (an export under a causal-only run) tests for it and builds
    no event."""


def _fan_out(handlers: list[Handler]) -> Handler:
    """One callable handing an event to *handlers* in order and returning
    what the first returns."""
    if len(handlers) < 2:
        return handlers[0] if handlers else ignore
    first, *rest = handlers

    def fan(ev: ProtocolEvent) -> Any:
        out = first(ev)
        for handler in rest:
            handler(ev)
        return out

    return fan


def subscribe(
    tracer: tracing.Tracer,
    causal: CausalLog | None,
    sanitizer: Fold | None,
    prov: Any | None,
    operation_log: Any | None,
    backend: str,
) -> tuple[tuple[Fold, ...], dict[str, Handler]]:
    """The folds watching a run, and per kind the one callable its
    events are announced to.

    The causal fold comes first, so an announcement returns the span
    context it recorded (``None`` for a kind it records no span for);
    the sanitizer comes next, so a violation raises before the other
    folds record the event.
    """
    folds: list[Fold] = []
    if causal is not None:
        folds.append(CausalFold(causal))
    if sanitizer is not None:
        folds.append(sanitizer)
    if tracer.enabled:
        folds.append(PaperFold(tracer))
    if prov is not None:
        folds.append(ProvenanceFold(prov, backend))
    if operation_log is not None:
        folds.append(OperationFold(operation_log))
    tables = [fold.handlers() for fold in folds]
    return tuple(folds), {
        kind: _fan_out([t[kind] for t in tables if kind in t]) for kind in KINDS
    }
