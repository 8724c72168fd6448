"""Causal distributed tracing for coupled runs.

The paper's argument is causal: the exporter rep's *first definitive
response* becomes the final answer (Property 1), and the buddy-help
broadcast of that answer lets slower exporter processes skip buffering
(Eq. 1-2).  This module makes those chains first-class.  Every
control-plane wire message carries a compact :class:`TraceContext`
(trace id + the sending span's id); the event spine's causal fold
(:mod:`repro.core.spine`) records a :class:`CausalSpan` at each protocol
event into a :class:`CausalLog`;
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
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, NamedTuple

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
    """Append-only recorder of causal spans.

    Span ids are allocated in record order, trace ids in first-use
    order of their ``(connection_id, request_ts)`` key — both are
    deterministic under the DES runtime (same seed, same schedule,
    same ids), which is what the seed-replay tests rely on.  A lock
    makes the log safe for the threaded live runtime.
    """

    def __init__(self) -> None:
        self.spans: list[CausalSpan] = []
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
        trace_id = int(trace_id)
        parent_ids = tuple(dict.fromkeys(map(int, parents)))
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(
                CausalSpan(span_id, trace_id, name, who, float(time), parent_ids, attrs)
            )
        return TraceContext(trace_id, span_id)

    def __len__(self) -> int:
        return len(self.spans)


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


def _stage_for(span_name: str) -> str:
    return STAGE_OF.get(span_name, _WIRE_STAGE)


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
    """The reconstructed happens-before DAG plus its derived views."""

    spans: tuple[CausalSpan, ...]
    resolutions: tuple[ImportResolution, ...]
    buddy_skips: tuple[BuddySkip, ...]

    @property
    def trace_ids(self) -> tuple[int, ...]:
        """Distinct trace ids, ascending."""
        return tuple(sorted({s.trace_id for s in self.spans}))

    def trace_spans(self, trace_id: int) -> tuple[CausalSpan, ...]:
        """All spans of one trace, in record order."""
        return tuple(s for s in self.spans if s.trace_id == trace_id)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All happens-before edges as ``(parent_id, child_id)``."""
        out: list[tuple[int, int]] = []
        for s in self.spans:
            out.extend((p, s.span_id) for p in s.parents)
        return tuple(out)

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
            f"causal trace: {len(self.spans)} spans, "
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


def _critical_path(
    end: CausalSpan, by_id: dict[int, CausalSpan], clip_at: float
) -> list[CausalSpan]:
    """Walk max-time parents from *end* back to (or past) *clip_at*."""
    path = [end]
    cur = end
    while cur.parents and cur.time > clip_at:
        parent = max(
            (by_id[p] for p in cur.parents if p in by_id),
            key=lambda s: (s.time, s.span_id),
            default=None,
        )
        if parent is None:
            break
        path.append(parent)
        cur = parent
    return path


def _attribute_stages(
    path: list[CausalSpan], issued_at: float
) -> dict[str, float]:
    """Per-stage durations along *path*; clips the first edge at
    *issued_at* so the stage durations sum exactly to the resolution
    latency ``path[0].time - issued_at``."""
    stages: dict[str, float] = {}
    for child, parent in zip(path, path[1:]):
        start = max(parent.time, issued_at)
        dur = child.time - start
        if dur <= 0.0:
            continue
        stage = _stage_for(child.name)
        stages[stage] = stages.get(stage, 0.0) + dur
    # A root later than the issue time (answer already cached when the
    # request was re-asked) leaves a leading wait: count it as wire
    # transit so the telescoped sum still equals the latency.
    if path:
        root = path[-1]
        if root.time > issued_at:
            lead = root.time - issued_at
            stages[_WIRE_STAGE] = stages.get(_WIRE_STAGE, 0.0) + lead
    return stages


def build_causal_report(source: Any) -> CausalReport:
    """Reconstruct the causal DAG from *source*.

    *source* is a :class:`CausalLog` or a finished simulation exposing
    one as ``.causal`` (both runtimes do when ``causal_trace`` is on).
    """
    log = source if isinstance(source, CausalLog) else getattr(source, "causal", None)
    require(isinstance(log, CausalLog), "no causal log: run with causal_trace=True")
    assert isinstance(log, CausalLog)
    spans = tuple(log.spans)
    by_id = {s.span_id: s for s in spans}
    # One pass: each trace's spans in log order, and every span some
    # 'complete' span continues.
    by_trace: dict[int, list[CausalSpan]] = {}
    continued: set[int] = set()
    for s in spans:
        by_trace.setdefault(s.trace_id, []).append(s)
        if s.name == "complete":
            continued.update(s.parents)

    resolutions: list[ImportResolution] = []
    for span in spans:
        if span.name not in ("answered", "complete"):
            continue
        # An 'answered' span a 'complete' span continues is skipped: the
        # completion is the authoritative end point.
        if span.name == "answered" and span.span_id in continued:
            continue
        # The rank's own request root: earliest 'request' span of this
        # trace recorded by the same process.
        end_who = span.who
        trace = by_trace[span.trace_id]
        roots = [s for s in trace if s.name == "request" and s.who == end_who]
        if not roots:
            continue
        root = min(roots, key=lambda s: (s.time, s.span_id))
        issued_at = root.time
        path = _critical_path(span, by_id, clip_at=issued_at)
        stages = _attribute_stages(path, issued_at)
        retransmits = sum(
            1 for s in trace if s.name == "retransmit" and s.who == end_who
        )
        agg = next((s for s in trace if s.name == "aggregate"), None)
        resolutions.append(
            ImportResolution(
                trace_id=span.trace_id,
                connection_id=str(root.attrs.get("connection", "")),
                request_ts=float(root.attrs.get("request", 0.0)),
                who=end_who,
                issued_at=issued_at,
                resolved_at=span.time,
                latency=span.time - issued_at,
                path=tuple(s.span_id for s in path),
                chain=tuple(s.name for s in reversed(path)),
                stages=stages,
                answer_kind=span.attrs.get("kind"),
                case=None if agg is None else agg.attrs.get("case"),
                retransmits=retransmits,
            )
        )

    skips = tuple(
        BuddySkip(
            who=s.who,
            connection_id=str(s.attrs.get("connection", "")),
            request_ts=float(s.attrs.get("request", 0.0)),
            export_ts=float(s.attrs.get("export_ts", 0.0)),
            lead=float(s.attrs.get("lead", 0.0)),
        )
        for s in spans
        if s.name == "buddy_skip"
    )
    resolutions.sort(key=lambda r: (r.trace_id, r.who, r.resolved_at))
    return CausalReport(
        spans=spans, resolutions=tuple(resolutions), buddy_skips=skips
    )
