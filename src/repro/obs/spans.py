"""Span timelines: per-rank intervals layered over the trace stream.

The observability layer's second pillar.  A :class:`Span` is a named
interval on one thread of activity (``"F.p1"``, ``"F.rep"``); a
:class:`Timeline` is every span and instant event for one such thread;
a :class:`TimelineSet` is the whole run.

Two sources feed timelines:

* **Derived spans** — :func:`build_timelines` reconstructs intervals
  from protocol records that already exist: each
  :class:`~repro.core.protocol.ExportRecord` becomes an
  ``export:<decision>`` span covering its memcpy/skip charge, and each
  answered :class:`~repro.core.importer.ImportRecord` becomes an
  ``import:wait`` span (request issued → answer known) followed by
  ``import:transfer`` (answer known → data complete).  Trace events
  recorded by the run's tracer ride along as instants.
* **User spans** — a :class:`SpanRecorder` passed to
  :func:`build_timelines` lets application ``main`` callbacks mark
  their own phases (``rec.add("solve", ctx.who, t0, t1)``) and see
  them interleaved with the framework's.

Times are the run clock of whichever runtime produced them (virtual
seconds on the DES, run-relative wall seconds on threads); the Chrome
exporter in :mod:`repro.obs.export` scales them to microseconds for the
viewer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.util.tracing import TraceEvent
from repro.util.validation import require


@dataclass(frozen=True)
class Span:
    """A named interval on one thread of activity."""

    name: str
    who: str
    start: float
    end: float
    #: Free-form annotations (request timestamps, byte counts, ...).
    args: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require(self.end >= self.start, f"span {self.name!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        out: dict[str, Any] = {
            "name": self.name,
            "who": self.who,
            "start": self.start,
            "end": self.end,
        }
        if self.args:
            out["args"] = dict(self.args)
        return out


@dataclass
class Timeline:
    """All activity for one thread (``who``), time-ordered."""

    who: str
    spans: list[Span] = field(default_factory=list)
    events: list[TraceEvent] = field(default_factory=list)

    def sort(self) -> None:
        self.spans.sort(key=lambda s: (s.start, s.end, s.name))
        self.events.sort(key=lambda e: (e.time, e.kind))

    @property
    def busy_time(self) -> float:
        """Total span time (overlaps counted twice — spans may nest)."""
        return sum(s.duration for s in self.spans)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form."""
        return {
            "who": self.who,
            "spans": [s.as_dict() for s in self.spans],
            "events": [
                {"kind": e.kind, "time": e.time, "detail": dict(e.detail)}
                for e in self.events
            ],
        }


@dataclass
class TimelineSet:
    """Per-thread timelines for a whole run."""

    timelines: dict[str, Timeline] = field(default_factory=dict)

    def timeline(self, who: str) -> Timeline:
        """The (possibly empty, created-on-demand) timeline for *who*."""
        tl = self.timelines.get(who)
        if tl is None:
            tl = Timeline(who=who)
            self.timelines[who] = tl
        return tl

    def whos(self) -> list[str]:
        """Sorted thread names."""
        return sorted(self.timelines)

    def all_spans(self) -> list[Span]:
        """Every span across threads, time-ordered."""
        out = [s for tl in self.timelines.values() for s in tl.spans]
        out.sort(key=lambda s: (s.start, s.who, s.name))
        return out

    def span_count(self) -> int:
        return sum(len(tl.spans) for tl in self.timelines.values())

    def event_count(self) -> int:
        return sum(len(tl.events) for tl in self.timelines.values())

    def sort(self) -> None:
        for tl in self.timelines.values():
            tl.sort()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form, threads in sorted order."""
        return {who: self.timelines[who].as_dict() for who in self.whos()}


class SpanRecorder:
    """User-facing span capture for application callbacks.

    Either bracket explicitly::

        rec.begin("solve", ctx.who, ctx.sim.now)
        ...
        rec.end("solve", ctx.who, ctx.sim.now)

    or add a finished interval directly with :meth:`add`.  Unbalanced
    ``begin`` calls are reported by :meth:`open_spans`; when merged
    into a run's timelines by :func:`build_timelines` they are flushed
    at the run's end time with an ``unclosed: True`` annotation rather
    than silently dropped (an interrupted phase is still a phase).
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: dict[tuple[str, str], list[tuple[float, dict[str, Any]]]] = {}

    def add(self, name: str, who: str, start: float, end: float, **args: Any) -> Span:
        """Record a finished interval."""
        span = Span(name=name, who=who, start=start, end=end, args=dict(args))
        self.spans.append(span)
        return span

    def begin(self, name: str, who: str, time: float, **args: Any) -> None:
        """Open an interval; pair with :meth:`end` (LIFO per name/who)."""
        self._open.setdefault((name, who), []).append((time, dict(args)))

    def end(self, name: str, who: str, time: float, **args: Any) -> Span:
        """Close the most recent open interval for *name*/*who*."""
        stack = self._open.get((name, who))
        require(bool(stack), f"no open span {name!r} for {who!r}")
        assert stack is not None
        start, start_args = stack.pop()
        if not stack:
            del self._open[(name, who)]
        return self.add(name, who, start, time, **{**start_args, **args})

    def open_spans(self) -> list[tuple[str, str]]:
        """(name, who) pairs begun but never ended."""
        return sorted(self._open)

    def flush_open(self, time: float) -> list[Span]:
        """Close every open interval at *time*, marked ``unclosed=True``.

        Called by :func:`build_timelines` at a run's end time so spans
        a crashed or early-exiting ``main`` never closed still appear
        in the timeline (annotated, not guessed at).  Returns the
        flushed spans; afterwards :meth:`open_spans` is empty.
        """
        flushed: list[Span] = []
        for (name, who), stack in sorted(self._open.items()):
            for start, start_args in stack:
                end = max(time, start)
                flushed.append(
                    self.add(name, who, start, end, **{**start_args, "unclosed": True})
                )
        self._open.clear()
        return flushed


def _export_spans(sim: Any) -> Iterable[Span]:
    for prog in getattr(sim, "_programs", {}).values():
        for ctx in getattr(prog, "contexts", []):
            for rec in ctx.stats.export_records:
                yield Span(
                    name=f"export:{rec.decision}",
                    who=ctx.who,
                    start=rec.at,
                    end=rec.at + rec.cost,
                    args={"ts": rec.ts},
                )


def _import_spans(sim: Any) -> Iterable[Span]:
    for prog in getattr(sim, "_programs", {}).values():
        for ctx in getattr(prog, "contexts", []):
            for ist in getattr(ctx, "import_states", {}).values():
                for rec in ist.records:
                    if rec.answered_at is not None:
                        yield Span(
                            name="import:wait",
                            who=ctx.who,
                            start=rec.issued_at,
                            end=rec.answered_at,
                            args={"request": rec.request_ts},
                        )
                    if rec.completed_at is not None:
                        start = (
                            rec.answered_at
                            if rec.answered_at is not None
                            else rec.issued_at
                        )
                        yield Span(
                            name="import:transfer",
                            who=ctx.who,
                            start=start,
                            end=rec.completed_at,
                            args={"request": rec.request_ts},
                        )


def _end_time(sim: Any, recorder: SpanRecorder) -> float:
    """Best-known run end time for flushing unclosed user spans."""
    inner = getattr(sim, "sim", None)
    if inner is not None and hasattr(inner, "now"):
        return float(inner.now)
    clock = getattr(sim, "elapsed", None)
    if callable(clock):
        return float(clock())
    # No runtime clock (bare recorder merge): latest known timestamp.
    times = [s.end for s in recorder.spans]
    times.extend(t for stack in recorder._open.values() for t, _ in stack)
    return max(times, default=0.0)


def build_timelines(
    sim: Any,
    tracer: Any = None,
    recorder: SpanRecorder | None = None,
) -> TimelineSet:
    """Assemble per-thread timelines for a finished simulation.

    Combines derived protocol spans, the tracer's instant events, and
    any user-recorded spans.  *tracer* defaults to the simulation's
    own; pass a different one to overlay a filtered view.
    """
    out = TimelineSet()
    for span in _export_spans(sim):
        out.timeline(span.who).spans.append(span)
    for span in _import_spans(sim):
        out.timeline(span.who).spans.append(span)
    if recorder is not None:
        if recorder.open_spans():
            recorder.flush_open(_end_time(sim, recorder))
        for span in recorder.spans:
            out.timeline(span.who).spans.append(span)
    tracer = tracer if tracer is not None else getattr(sim, "tracer", None)
    for event in getattr(tracer, "events", ()):
        out.timeline(event.who).events.append(event)
    out.sort()
    return out
