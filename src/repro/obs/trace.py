"""Causal distributed tracing for coupled runs.

The paper's argument is causal: the exporter rep's *first definitive
response* becomes the final answer (Property 1), and the buddy-help
broadcast of that answer lets slower exporter processes skip buffering
(Eq. 1-2).  This module makes those chains first-class.  Every
control-plane wire message carries a compact :class:`TraceContext`
(trace id + the sending span's id); the event spine's causal fold
(:mod:`repro.core.spine`) appends a span at each protocol event to
the columns of a :class:`CausalLog`;
:func:`build_causal_report` reconstructs the per-import happens-before
DAG, walks the critical path of every resolution, and attributes its
latency to protocol stages.

Span vocabulary (one trace per ``(connection, request_ts)``):

===============  ========================================================
``request``      importer process issues ``ImpProcRequest``
``retransmit``   the fault layer re-issues a request (same trace id)
``rep_forward``  importer rep forwards to the exporter rep
``fan_out``      exporter rep fans the request out to one process
``match``        an exporter process answers with its match response
``aggregate``    exporter rep aggregates responses into the final answer
``buddy_notify`` exporter rep sends the buddy-help message to one rank
``buddy_recv``   an exporter process receives the buddy answer
``buddy_skip``   a buffering skip enabled by a buddy answer (lead time)
``answer``       importer rep delivers the final answer to a process
``answered``     the importing process consumes the answer
``complete``     all data pieces arrived; the import returns
===============  ========================================================

Stage attribution classifies each critical-path edge by the event it
*ends at*: the wait before a ``match`` is match wait, the hop into
``aggregate`` is rep aggregation, the hop into ``complete`` is data
transfer, buddy events are buddy help, and everything else is wire
transit.  The first edge is clipped at the importing rank's own request
time, so the per-stage durations telescope exactly to the observed
resolution latency.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Mapping, NamedTuple, cast

from repro.util.validation import require

__all__ = [
    "TraceContext",
    "CausalSpan",
    "CausalLog",
    "BuddySkip",
    "ImportResolution",
    "CausalReport",
    "build_causal_report",
    "STAGE_OF",
]


class TraceContext(NamedTuple):
    """The compact context attached to control-plane wire messages.

    ``trace_id`` names the import being resolved (one per connection +
    request timestamp); ``span_id`` is the id of the span recorded when
    the carrying message was sent, i.e. the receiver's causal parent.
    One is made per span on the protocol's send path, hence a tuple and
    not a frozen dataclass (whose ``__init__`` is several times dearer).
    """

    trace_id: int
    span_id: int

    def as_dict(self) -> dict[str, int]:
        """JSON-ready form."""
        return {"trace_id": self.trace_id, "span_id": self.span_id}


#: Builds a :class:`TraceContext` from ``(trace_id, span_id)`` in one
#: C-level call: one is made per recorded span.
_context = cast(
    Callable[[tuple[int, int]], TraceContext], partial(tuple.__new__, TraceContext)
)


class CausalSpan(NamedTuple):
    """One node of the happens-before DAG (a tuple, as its context is)."""

    span_id: int
    trace_id: int
    name: str
    who: str
    time: float
    parents: tuple[int, ...]
    attrs: dict[str, Any]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        out: dict[str, Any] = {
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "who": self.who,
            "time": self.time,
            "parents": list(self.parents),
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out


class CausalLog:
    """Append-only recorder of causal spans, held as columns: one list
    per span field, the attr key order of each span (:attr:`shapes`) and
    one sparse column per attr key (:attr:`attrs`: key → row → value).

    A span's id is its row; trace ids are allocated in first-use order
    of their ``(connection_id, request_ts)`` key — both deterministic
    under the DES runtime, which is what the seed-replay tests rely on.
    A lock makes the log safe for the threaded live runtime.
    """

    def __init__(self) -> None:
        self.trace_ids: list[int] = []
        self.names: list[str] = []
        self.whos: list[str] = []
        self.times: list[float] = []
        self.parents: list[tuple[int, ...]] = []
        self.shapes: list[tuple[str, ...]] = []
        self.attrs: defaultdict[str, dict[int, Any]] = defaultdict(dict)
        #: Shape → the :attr:`attrs` columns of its keys, in order.
        self._columns: dict[tuple[str, ...], tuple[dict[int, Any], ...]] = {}
        self._spans: tuple[CausalSpan, ...] = ()
        self._trace_keys: dict[tuple[str, float], int] = {}
        self._lock = threading.Lock()

    def trace_for(self, connection_id: str, request_ts: float) -> int:
        """The trace id of the import ``(connection_id, request_ts)``."""
        key = (connection_id, float(request_ts))
        with self._lock:
            tid = self._trace_keys.get(key)
            if tid is None:
                tid = len(self._trace_keys)
                self._trace_keys[key] = tid
            return tid

    def trace_key(self, trace_id: int) -> tuple[str, float] | None:
        """The ``(connection_id, request_ts)`` behind *trace_id*."""
        with self._lock:
            for key, tid in self._trace_keys.items():
                if tid == trace_id:
                    return key
        return None

    def record(
        self,
        trace_id: int,
        name: str,
        who: str,
        time: float,
        parents: Iterable[int] = (),
        **attrs: Any,
    ) -> TraceContext:
        """Append a span; returns the context to stamp onto messages."""
        parent_ids = tuple(dict.fromkeys(map(int, parents)))
        return self.append(
            int(trace_id), name, who, float(time), parent_ids, tuple(attrs), tuple(attrs.values())
        )

    def append(self, trace_id: int, name: str, who: str, time: float,
               parents: tuple[int, ...], keys: tuple[str, ...],
               values: tuple[Any, ...]) -> TraceContext:
        """:meth:`record` for a caller whose trace id is an int, whose
        time is a float, whose parent ids are distinct ints and whose
        attrs are *keys* → *values* (the causal fold's path: no dict is
        built per span)."""
        with self._lock:
            span_id = len(self.times)
            self.trace_ids.append(trace_id)
            self.names.append(name)
            self.whos.append(who)
            self.times.append(time)
            self.parents.append(parents)
            self.shapes.append(keys)
            try:
                columns = self._columns[keys]
            except KeyError:
                columns = self._columns[keys] = tuple(map(self.attrs.__getitem__, keys))
            for column, value in zip(columns, values):
                column[span_id] = value
        return _context((trace_id, span_id))

    @property
    def spans(self) -> tuple[CausalSpan, ...]:
        """Every span as a :class:`CausalSpan`, built on first access
        (again once the log has grown), attrs in their recorded order."""
        with self._lock:
            if len(self._spans) != len(self.times):
                attrs = self.attrs
                self._spans = tuple(
                    CausalSpan(i, *row, {key: attrs[key][i] for key in shape})
                    for i, (*row, shape) in enumerate(zip(
                        self.trace_ids, self.names, self.whos, self.times, self.parents, self.shapes
                    ))
                )
            return self._spans

    def __len__(self) -> int:
        return len(self.times)


#: Critical-path stage of an edge, keyed by the span the edge ends at.
STAGE_OF: Mapping[str, str] = {
    "match": "match_wait",
    "aggregate": "rep_aggregation",
    "complete": "data_transfer",
    "buddy_notify": "buddy_help",
    "buddy_recv": "buddy_help",
    "buddy_skip": "buddy_help",
}

_WIRE_STAGE = "wire_transit"


@dataclass(frozen=True)
class BuddySkip:
    """One buffering skip enabled by a buddy-help answer."""

    who: str
    connection_id: str
    request_ts: float
    export_ts: float
    #: How far ahead of the local skip decision the buddy answer
    #: arrived — the paper-optimization win for this window.
    lead: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "who": self.who,
            "connection": self.connection_id,
            "request": self.request_ts,
            "export_ts": self.export_ts,
            "lead": self.lead,
        }


@dataclass(frozen=True)
class ImportResolution:
    """One rank's resolved import, with its critical path."""

    trace_id: int
    connection_id: str
    request_ts: float
    who: str
    issued_at: float
    resolved_at: float
    latency: float
    #: Span ids along the critical path, end first, root last.
    path: tuple[int, ...]
    #: Span names along the path, root first (readable chain).
    chain: tuple[str, ...]
    #: Stage -> attributed seconds; values sum to :attr:`latency`.
    stages: dict[str, float]
    answer_kind: str | None = None
    case: str | None = None
    retransmits: int = 0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "trace_id": self.trace_id,
            "connection": self.connection_id,
            "request": self.request_ts,
            "who": self.who,
            "issued_at": self.issued_at,
            "resolved_at": self.resolved_at,
            "latency": self.latency,
            "path": list(self.path),
            "chain": list(self.chain),
            "stages": dict(self.stages),
            "answer_kind": self.answer_kind,
            "case": self.case,
            "retransmits": self.retransmits,
        }


@dataclass(frozen=True)
class CausalReport:
    """The happens-before DAG (the columns of *log*) plus its derived views."""

    log: CausalLog
    resolutions: tuple[ImportResolution, ...]
    buddy_skips: tuple[BuddySkip, ...]

    @property
    def spans(self) -> tuple[CausalSpan, ...]:
        """Every span, in record order (built on first access)."""
        return self.log.spans

    @property
    def trace_ids(self) -> tuple[int, ...]:
        """Distinct trace ids, ascending."""
        return tuple(sorted(set(self.log.trace_ids)))

    def trace_spans(self, trace_id: int) -> tuple[CausalSpan, ...]:
        """All spans of one trace, in record order."""
        return tuple(s for s in self.spans if s.trace_id == trace_id)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All happens-before edges as ``(parent_id, child_id)``."""
        return tuple(
            (p, child) for child, parents in enumerate(self.log.parents) for p in parents
        )

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (schema ``repro.causal/v1``)."""
        return {
            "schema": "repro.causal/v1",
            "spans": [s.as_dict() for s in self.spans],
            "resolutions": [r.as_dict() for r in self.resolutions],
            "buddy_skips": [b.as_dict() for b in self.buddy_skips],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize as JSON text."""
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def render(self) -> str:
        """Human summary: one line per resolution, then buddy leads."""
        lines = [
            f"causal trace: {len(self.log)} spans, "
            f"{len(self.trace_ids)} imports, "
            f"{len(self.resolutions)} resolutions"
        ]
        for r in self.resolutions:
            stages = ", ".join(
                f"{k}={v:.6f}" for k, v in sorted(r.stages.items())
            )
            lines.append(
                f"  {r.who} {r.connection_id}@{r.request_ts:g}: "
                f"latency={r.latency:.6f} [{' -> '.join(r.chain)}] ({stages})"
            )
        for b in self.buddy_skips:
            lines.append(
                f"  buddy-skip {b.who} {b.connection_id}@{b.request_ts:g}: "
                f"export_ts={b.export_ts:g} lead={b.lead:.6f}"
            )
        return "\n".join(lines)


def _critical_path(log: CausalLog, end: int, issued_at: float) -> tuple[list[int], dict[str, float]]:
    """The path of max-time parents from span *end* back to (or past)
    *issued_at*, end first, and its per-stage durations; the first edge
    is clipped at *issued_at*, so they sum exactly to the latency."""
    times, names, parents, known = log.times, log.names, log.parents, range(len(log))
    path: list[int] = [end]
    stages: dict[str, float] = {}
    while times[end] > issued_at:
        ids = parents[end]
        if not (len(ids) == 1 and ids[0] in known):  # most spans have one cause
            ids = [p for p in ids if p in known]
            if not ids:
                break
        parent = max(ids, key=lambda p: (times[p], p)) if ids[1:] else ids[0]
        dur = times[end] - max(times[parent], issued_at)
        if dur > 0.0:
            stage = STAGE_OF.get(names[end], _WIRE_STAGE)
            stages[stage] = stages.get(stage, 0.0) + dur
        path.append(parent)
        end = parent
    # A root later than the issue time (answer already cached when the
    # request was re-asked) leaves a leading wait: count it as wire
    # transit so the telescoped sum still equals the latency.
    if times[end] > issued_at:
        stages[_WIRE_STAGE] = stages.get(_WIRE_STAGE, 0.0) + (times[end] - issued_at)
    return path, stages


def build_causal_report(source: Any) -> CausalReport:
    """Reconstruct the causal DAG from *source*.

    *source* is a :class:`CausalLog` or a finished simulation exposing
    one as ``.causal`` (both runtimes do when ``causal_trace`` is on);
    one pass over its columns finds roots, retransmits, first aggregates,
    end points and buddy skips.
    """
    # Any other object (no ``causal`` at all) gets the same error as a
    # run without the causal trace.
    log = source if isinstance(source, CausalLog) else getattr(source, "causal", None)
    require(isinstance(log, CausalLog), "no causal log: run with causal_trace=True")
    assert isinstance(log, CausalLog)
    tids, names, whos, times = log.trace_ids, log.names, log.whos, log.times
    roots: dict[tuple[int, str], int] = {}
    retransmits: Counter[tuple[int, str]] = Counter()
    aggregates: dict[int, int] = {}
    continued: set[int] = set()
    ends: list[int] = []
    skips: list[int] = []
    for i, name in enumerate(names):
        if name == "request":
            # The rank's own request root: its earliest request span.
            root = roots.setdefault((tids[i], whos[i]), i)
            if times[i] < times[root]:
                roots[tids[i], whos[i]] = i
        elif name == "retransmit":
            retransmits[tids[i], whos[i]] += 1
        elif name == "aggregate":
            aggregates.setdefault(tids[i], i)
        elif name == "buddy_skip":
            skips.append(i)
        elif name in ("answered", "complete"):
            ends.append(i)
            if name == "complete":
                continued.update(log.parents[i])
    connection, request, kind, case, export_ts, lead = (
        log.attrs.get(key, {})
        for key in ("connection", "request", "kind", "case", "export_ts", "lead")
    )
    resolutions: list[ImportResolution] = []
    for end in ends:
        # An 'answered' span a 'complete' span continues is skipped: the
        # completion is the authoritative end point.
        key = (tids[end], whos[end])
        root = roots.get(key)
        if root is None or (names[end] == "answered" and end in continued):
            continue
        issued_at = times[root]
        path, stages = _critical_path(log, end, issued_at)
        resolutions.append(ImportResolution(
            key[0], str(connection.get(root, "")), float(request.get(root, 0.0)), key[1],
            issued_at, times[end], times[end] - issued_at, tuple(path),
            tuple(names[i] for i in reversed(path)), stages,
            kind.get(end), case.get(aggregates.get(key[0])), retransmits[key],
        ))
    buddy_skips = tuple(
        BuddySkip(whos[i], str(connection.get(i, "")), float(request.get(i, 0.0)),
                  float(export_ts.get(i, 0.0)), float(lead.get(i, 0.0)))
        for i in skips
    )
    resolutions.sort(key=lambda r: (r.trace_id, r.who, r.resolved_at))
    return CausalReport(log=log, resolutions=tuple(resolutions), buddy_skips=buddy_skips)
