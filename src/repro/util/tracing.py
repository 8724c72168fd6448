"""Structured event tracing.

The paper explains buddy-help with line-by-line event traces (Figures 5,
7 and 8): ``export D@1.6, call memcpy.`` / ``export D@15.6, skip
memcpy.`` / ``receive buddy-help {D@20, YES, D@19.6}.`` and so on.  To
*regenerate* those figures we record every framework decision as a
:class:`TraceEvent` and render the stream in the paper's notation.

Event kinds are validated at record time: only the kinds below are
accepted, so a typo'd kind fails loudly at the emission site instead of
silently producing events nothing ever filters for.

The runtimes feed a tracer through the event spine's paper fold
(:mod:`repro.core.spine`), and only when it is ``enabled``: the default
:class:`NullTracer` is never called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

#: The trace event kinds emitted by the framework (plain strings).
EXPORT_MEMCPY = "export_memcpy"
EXPORT_SKIP = "export_skip"
EXPORT_SEND = "export_send"
BUFFER_REMOVE = "buffer_remove"
REQUEST_RECV = "request_recv"
REQUEST_REPLY = "request_reply"
BUDDY_RECV = "buddy_help_recv"
BUDDY_SEND = "buddy_help_send"
IMPORT_REQUEST = "import_request"
IMPORT_COMPLETE = "import_complete"
REP_FINALIZE = "rep_finalize"
# Fault-injection and protocol-resilience kinds (repro.faults; see
# docs/resilience.md).  The first five are emitted by the fault layer
# itself, the last two by the hardened protocol reacting to faults.
FAULT_DROP = "fault_drop"
FAULT_DUP = "fault_dup"
FAULT_DELAY = "fault_delay"
FAULT_STALL = "fault_stall"
FAULT_CRASH = "fault_crash"
RETRANSMIT = "retransmit"
DUP_DISCARD = "dup_discard"


def _check_kind(kind: str) -> None:
    """Reject unknown kinds — shared by every tracer, including
    :class:`NullTracer`, so a typo'd emission site fails under the
    no-op default too, not only when someone turns tracing on."""
    if kind not in KNOWN_KINDS:
        raise ValueError(
            f"unregistered trace kind {kind!r}; the kinds are {sorted(KNOWN_KINDS)}"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One framework decision, in the paper's Figure-5/7/8 vocabulary.

    Attributes
    ----------
    kind:
        One of the module-level kind constants.
    who:
        Identity of the acting process, e.g. ``"F.p_s"``.
    time:
        Virtual (or wall) time at which the event occurred.
    timestamp:
        The simulation timestamp of the data object involved, when
        applicable (``None`` otherwise).
    detail:
        Free-form key/value payload (e.g. request timestamp, match
        answer, removed range).
    """

    kind: str
    who: str
    time: float
    timestamp: float | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def render(self, object_name: str = "D") -> str:
        """Render this event one line in the paper's notation."""
        ts = f"{object_name}@{self.timestamp:g}" if self.timestamp is not None else ""
        return _RENDERERS[self.kind](self, object_name, ts)


# -- the renderer table -------------------------------------------------------
# One entry per kind; the table is the list of valid kinds.

def _render_export_memcpy(e: TraceEvent, name: str, ts: str) -> str:
    return f"export {ts}, call memcpy."


def _render_export_skip(e: TraceEvent, name: str, ts: str) -> str:
    return f"export {ts}, skip memcpy."


def _render_export_send(e: TraceEvent, name: str, ts: str) -> str:
    return f"send {ts} out."


def _render_buffer_remove(e: TraceEvent, name: str, ts: str) -> str:
    lo, hi = e.detail.get("low"), e.detail.get("high")
    if lo is not None and hi is not None and lo != hi:
        return f"remove {name}@{lo:g}, ..., {name}@{hi:g}."
    return f"remove {ts}."


def _render_request_recv(e: TraceEvent, name: str, ts: str) -> str:
    return f"receive request for {name}@{e.detail['request']:g}."


def _render_request_reply(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    answer = d.get("answer", "?")
    latest = d.get("latest")
    latest_s = f", {name}@{latest:g}" if latest is not None else ""
    return f"reply {{{name}@{d['request']:g}, {answer}{latest_s}}}."


def _render_buddy_recv(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return (
        f"receive buddy-help {{{name}@{d['request']:g}, "
        f"{d.get('answer', 'YES')}, {name}@{d['match']:g}}}."
    )


def _render_buddy_send(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return (
        f"send buddy-help {{{name}@{d['request']:g}, "
        f"{d.get('answer', 'YES')}, {name}@{d['match']:g}}}."
    )


def _render_import_request(e: TraceEvent, name: str, ts: str) -> str:
    return f"request {name}@{e.detail['request']:g}."


def _render_import_complete(e: TraceEvent, name: str, ts: str) -> str:
    return f"import {ts} complete."


def _render_rep_finalize(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return f"rep finalize {{{name}@{d['request']:g}, {d.get('answer', '?')}}}."


def _fmt_msg(d: dict[str, Any]) -> str:
    msg = d.get("msg", "?")
    seq = d.get("seq")
    return f"{msg}#{seq}" if seq is not None else str(msg)


def _render_fault_drop(e: TraceEvent, name: str, ts: str) -> str:
    return f"fault: drop {_fmt_msg(e.detail)} -> {e.detail.get('dst', '?')}."


def _render_fault_dup(e: TraceEvent, name: str, ts: str) -> str:
    return f"fault: duplicate {_fmt_msg(e.detail)} -> {e.detail.get('dst', '?')}."


def _render_fault_delay(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return (
        f"fault: delay {_fmt_msg(d)} -> {d.get('dst', '?')} "
        f"by {d.get('delay', 0.0):g}."
    )


def _render_fault_stall(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return f"fault: stall for {d.get('duration', 0.0):g}."


def _render_fault_crash(e: TraceEvent, name: str, ts: str) -> str:
    return "fault: crash (fail-stop)."


def _render_retransmit(e: TraceEvent, name: str, ts: str) -> str:
    d = e.detail
    return (
        f"re-send request {name}@{d['request']:g} "
        f"(attempt {d.get('attempt', '?')}, rto {d.get('rto', 0.0):g})."
    )


def _render_dup_discard(e: TraceEvent, name: str, ts: str) -> str:
    return f"discard duplicate {_fmt_msg(e.detail)}."


_RENDERERS: dict[str, Callable[[TraceEvent, str, str], str]] = {
    EXPORT_MEMCPY: _render_export_memcpy,
    EXPORT_SKIP: _render_export_skip,
    EXPORT_SEND: _render_export_send,
    BUFFER_REMOVE: _render_buffer_remove,
    REQUEST_RECV: _render_request_recv,
    REQUEST_REPLY: _render_request_reply,
    BUDDY_RECV: _render_buddy_recv,
    BUDDY_SEND: _render_buddy_send,
    IMPORT_REQUEST: _render_import_request,
    IMPORT_COMPLETE: _render_import_complete,
    REP_FINALIZE: _render_rep_finalize,
    FAULT_DROP: _render_fault_drop,
    FAULT_DUP: _render_fault_dup,
    FAULT_DELAY: _render_fault_delay,
    FAULT_STALL: _render_fault_stall,
    FAULT_CRASH: _render_fault_crash,
    RETRANSMIT: _render_retransmit,
    DUP_DISCARD: _render_dup_discard,
}

#: Every valid kind: a kind is known exactly when it has a renderer.
KNOWN_KINDS = frozenset(_RENDERERS)


class Tracer:
    """Collects :class:`TraceEvent` records.

    Parameters
    ----------
    predicate:
        Optional filter; events for which it returns ``False`` are
        dropped at record time (cheaper than filtering afterwards for
        long runs).
    """

    def __init__(
        self, predicate: Callable[[TraceEvent], bool] | None = None
    ) -> None:
        self.events: list[TraceEvent] = []
        self._predicate = predicate

    #: Whether this tracer records anything; the event spine subscribes
    #: a paper fold to it only when true.
    enabled: bool = True

    def record(
        self,
        kind: str,
        who: str,
        time: float,
        timestamp: float | None = None,
        **detail: Any,
    ) -> None:
        """Record one event.

        The kind must be one of :data:`KNOWN_KINDS`; anything else
        raises ``ValueError`` so a typo'd emission site fails at the
        first event, not in whatever downstream code silently filters
        the stream.
        """
        if kind not in KNOWN_KINDS:  # the common case costs no call
            _check_kind(kind)
        ev = TraceEvent(kind=kind, who=who, time=time, timestamp=timestamp, detail=detail)
        if self._predicate is None or self._predicate(ev):
            self.events.append(ev)

    def filter(
        self, kind: str | None = None, who: str | None = None
    ) -> list[TraceEvent]:
        """Return events matching the given kind and/or actor."""
        out = self.events
        if kind is not None:
            out = [e for e in out if e.kind == kind]
        if who is not None:
            out = [e for e in out if e.who == who]
        return list(out)

    def kinds(self) -> set[str]:
        """Set of distinct event kinds recorded."""
        return {e.kind for e in self.events}

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class NullTracer(Tracer):
    """A tracer that drops everything; the default, so nothing watches."""

    def __init__(self) -> None:  # noqa: D107 - trivial
        super().__init__()

    #: Always ``False``: callers may skip building event details.
    enabled = False

    def record(
        self,
        kind: str,
        who: str,
        time: float,
        timestamp: float | None = None,
        **detail: Any,
    ) -> None:
        """Validate the kind, then drop the event."""
        _check_kind(kind)


def format_trace(
    events: Iterable[TraceEvent],
    object_name: str = "D",
    numbered: bool = True,
) -> str:
    """Render *events* as the paper renders Figures 5, 7 and 8.

    Parameters
    ----------
    events:
        The events to render, in order.
    object_name:
        The distributed object's display name (the paper uses ``D``).
    numbered:
        Prefix each line with a 1-based line number like the figures do.
    """
    lines = []
    for i, ev in enumerate(events, start=1):
        body = ev.render(object_name=object_name)
        lines.append(f"{i:>3}  {body}" if numbered else body)
    return "\n".join(lines)
