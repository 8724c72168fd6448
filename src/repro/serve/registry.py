"""The server-side session registry.

One :class:`SessionRegistry` tracks every session of a server process:
identity (unique ids), lifecycle state, the FIFO of sessions no worker
has taken yet, buffered telemetry, live subscribers and outcome
payloads.  It is an event-loop object — every method must be called
from the loop thread (worker frames arrive in ``loop.add_reader``
callbacks), which is what makes the create/attach/cancel races benign
without locks.

Telemetry fan-out and backpressure
----------------------------------
Telemetry arrives as encoded ``repro.telemetry/v1`` lines and is never
decoded here.  Each session keeps a bounded ring buffer of recent lines
(late attachers replay it) and a list of bounded per-subscriber
:class:`asyncio.Queue` objects.  A slow consumer never blocks the
loop: when its queue is full the *oldest* queued line is dropped and
counted, per session and server-wide — the drop counters are part of
the wire surface (``GET /sessions/{id}``, ``GET /stats``), so an
attached monitor can see it lost lines rather than silently missing
them.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.obs.fleet import Aggregate
from repro.serve.spec import SERVE_SCHEMA, TERMINAL_STATES, SessionSpec

__all__ = ["ServerFull", "SessionRecord", "SessionRegistry"]


class ServerFull(RuntimeError):
    """Raised by :meth:`SessionRegistry.create` at the session cap."""


#: End-of-stream sentinel delivered to every subscriber queue.
_EOS = None


@dataclass(eq=False)
class SessionRecord:
    """Everything the server knows about one session (compared by identity)."""

    id: str
    spec: SessionSpec
    state: str = "queued"
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    worker_pid: int | None = None
    error: str | None = None
    cancel_reason: str | None = None
    #: The ``repro.report/v1`` payload once the session is done.
    report: dict[str, Any] | None = None
    #: The ``repro.prov/v1`` log text, when the spec asked for one.
    provenance: str | None = None
    sim_time: float | None = None
    counters: dict[str, int] | None = None
    #: Telemetry bookkeeping.
    records: int = 0
    dropped: int = 0
    buffer: deque[bytes] = field(default_factory=deque)
    subscribers: list[asyncio.Queue[bytes | None]] = field(default_factory=list)
    #: Set exactly once, when the session reaches a terminal state.
    done_event: asyncio.Event = field(default_factory=asyncio.Event)

    @property
    def terminal(self) -> bool:
        """Whether the session has reached a final state."""
        return self.state in TERMINAL_STATES

    def info(self) -> dict[str, Any]:
        """The JSON view served by ``GET /sessions/{id}``."""
        return {
            "schema": SERVE_SCHEMA,
            "id": self.id,
            "label": self.spec.label,
            "scenario": self.spec.scenario,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "worker_pid": self.worker_pid,
            "error": self.error,
            "cancel_reason": self.cancel_reason,
            "sim_time": self.sim_time,
            "counters": self.counters,
            "report_ready": self.report is not None,
            "provenance_ready": self.provenance is not None,
            "telemetry": {
                "records": self.records,
                "buffered": len(self.buffer),
                "dropped": self.dropped,
                "subscribers": len(self.subscribers),
            },
        }

    def row(self) -> dict[str, Any]:
        """This terminal session as a fleet-aggregate row: a failed one
        has no trustworthy report, so only ``done`` adds paper fields."""
        row: dict[str, Any] = {"scenario": self.spec.scenario, "state": self.state,
                               "telemetry_records": self.records,
                               "telemetry_dropped": self.dropped}
        if self.state != "done":
            return row
        if self.finished is not None and self.finished >= self.created:
            row["duration"] = self.finished - self.created
        run = ((self.report or {}).get("runs") or [{}])[0]
        paper = (run.get("metrics") or {}).get("paper")
        if isinstance(paper, dict) and paper:
            pending = paper.get("pending_resolution") or {}
            row.update(t_ub=paper.get("t_ub_total", 0.0),
                       buddy_saved_total=paper.get("buddy_saved_total", 0.0),
                       buddy_skips=paper.get("buddy_skips", 0))
            if pending.get("count"):
                row["resolution"] = pending.get("mean", 0.0)
        return row


class SessionRegistry:
    """Create/attach/list/cancel over the sessions of one server."""

    def __init__(
        self,
        max_sessions: int = 256,
        buffer_records: int = 512,
        queue_size: int = 64,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        if queue_size < 1:
            raise ValueError("queue_size must be >= 1")
        self.max_sessions = max_sessions
        self.buffer_records = buffer_records
        self.queue_size = queue_size
        self._sessions: dict[str, SessionRecord] = {}
        self._counter = itertools.count(1)
        #: Sessions no worker has taken yet, oldest first; the server
        #: pops from the left, a cancel removes from anywhere.
        self.queued: deque[SessionRecord] = deque()
        #: Sessions not yet terminal (what the cap applies to).
        self.active_count = 0
        #: Server-wide telemetry totals.
        self.published = 0
        self.dropped_total = 0
        #: Cross-session aggregate; one row folded per terminal state.
        self.aggregate = Aggregate()

    # -- identity and lookup ----------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def get(self, session_id: str) -> SessionRecord | None:
        """The session with *session_id*, or None."""
        return self._sessions.get(session_id)

    def list(self) -> list[SessionRecord]:
        """Every session, oldest first."""
        return list(self._sessions.values())

    def active(self) -> list[SessionRecord]:
        """Sessions not yet in a terminal state."""
        return [s for s in self._sessions.values() if not s.terminal]

    def create(self, spec: SessionSpec) -> SessionRecord:
        """Register a new queued session; raises :class:`ServerFull`.

        The cap applies to *active* sessions: finished ones stay
        listed for reports but never block new work.
        """
        if self.active_count >= self.max_sessions:
            raise ServerFull(
                f"server is at its session cap ({self.max_sessions} active)"
            )
        sid = f"s-{next(self._counter):05d}-{uuid.uuid4().hex[:6]}"
        record = SessionRecord(
            id=sid, spec=spec, buffer=deque(maxlen=self.buffer_records)
        )
        self._sessions[sid] = record
        self.queued.append(record)
        self.active_count += 1
        return record

    def mark_started(self, session_id: str, pid: int) -> None:
        """A worker took the session: ``queued`` becomes ``running``."""
        session = self._sessions.get(session_id)
        if session is None:
            return
        if session.state == "queued":
            session.state = "running"
            session.started = time.time()
        session.worker_pid = pid

    # -- telemetry fan-out -------------------------------------------------
    def publish(self, session_id: str, lines: list[bytes]) -> None:
        """Deliver one telemetry frame from a worker to its session.

        Every line is buffered and fanned out verbatim to every
        subscriber with drop-oldest backpressure.
        """
        session = self._sessions.get(session_id)
        if session is None or session.terminal:  # ignore the straggler
            return
        session.records += len(lines)
        self.published += len(lines)
        session.buffer.extend(lines)
        for queue in session.subscribers:
            for line in lines:
                self._offer(session, queue, line)

    def _offer(
        self,
        session: SessionRecord,
        queue: asyncio.Queue[bytes | None],
        record: bytes | None,
    ) -> None:
        """Enqueue without blocking; drop the oldest when full."""
        while True:
            try:
                queue.put_nowait(record)
                return
            except asyncio.QueueFull:
                try:
                    victim = queue.get_nowait()
                except asyncio.QueueEmpty:  # pragma: no cover - tiny race
                    continue
                if victim is not _EOS:
                    session.dropped += 1
                    self.dropped_total += 1

    def attach(
        self, session_id: str
    ) -> tuple[list[bytes], asyncio.Queue[bytes | None] | None]:
        """Subscribe to a session's telemetry.

        Returns ``(replay, queue)``: the buffered lines to replay
        first, and a live queue that yields further lines then a
        ``None`` end-of-stream sentinel — or ``queue=None`` when the
        session is already terminal (the replay is all there is).
        Detach with :meth:`detach`.
        """
        session = self._sessions[session_id]
        replay = list(session.buffer)
        if session.terminal:
            return replay, None
        queue: asyncio.Queue[bytes | None] = asyncio.Queue(maxsize=self.queue_size)
        session.subscribers.append(queue)
        return replay, queue

    def detach(self, session_id: str, queue: asyncio.Queue[bytes | None]) -> None:
        """Remove a subscriber queue (idempotent)."""
        session = self._sessions.get(session_id)
        if session is not None and queue in session.subscribers:
            session.subscribers.remove(queue)

    # -- lifecycle ---------------------------------------------------------
    def finish(
        self,
        session_id: str,
        state: str,
        *,
        error: str | None = None,
        cancel_reason: str | None = None,
        outcome: dict[str, Any] | None = None,
    ) -> None:
        """Move a session to a terminal *state* and wake subscribers."""
        session = self._sessions.get(session_id)
        if session is None or session.terminal:
            return
        if state not in TERMINAL_STATES:
            raise ValueError(f"finish() requires a terminal state, got {state!r}")
        if session.state == "queued":
            with contextlib.suppress(ValueError):  # a worker already took it
                self.queued.remove(session)
        self.active_count -= 1
        session.state = state
        session.finished = time.time()
        session.error = error
        if cancel_reason is not None:
            session.cancel_reason = cancel_reason
        if outcome is not None:
            session.report = outcome.get("report")
            session.provenance = outcome.get("provenance")
            session.sim_time = outcome.get("sim_time")
            session.counters = outcome.get("counters")
        for queue in session.subscribers:  # may evict (and count) a line
            self._offer(session, queue, _EOS)
        session.subscribers.clear()
        # finish() is the single terminal-state transition point, so
        # folding here keeps the fleet aggregate exactly in step with
        # the wire-visible session states — whatever order sessions
        # finish in.
        self.aggregate.add(session.row())
        session.done_event.set()

    def apply_outcome(
        self, session_id: str, outcome: dict[str, Any] | None
    ) -> None:
        """Finish a session from a worker outcome dict (idempotent).

        A session cancelled while running has its result discarded —
        the recorded cancel reason wins over the worker's outcome.
        """
        session = self._sessions.get(session_id)
        if session is None or session.terminal:
            return
        if session.cancel_reason is not None:
            self.finish(
                session_id, "cancelled", cancel_reason=session.cancel_reason
            )
        elif outcome is not None and outcome.get("ok"):
            self.finish(session_id, "done", outcome=outcome)
        else:
            error = str(
                (outcome or {}).get("error") or "worker returned no outcome"
            )
            self.finish(session_id, "failed", error=error)

    def request_cancel(self, session_id: str, reason: str) -> SessionRecord:
        """Cancel a session; returns its record.

        A session still in the FIFO leaves it and dies immediately; one
        a worker has taken cannot be interrupted mid-run (worker
        processes are not preemptible), so it is marked — the server
        discards its result on completion and records *reason*.
        """
        session = self._sessions[session_id]
        if session.terminal:
            return session
        session.cancel_reason = reason
        if session in self.queued:
            self.finish(session_id, "cancelled", cancel_reason=reason)
        return session

    def stats(self) -> dict[str, Any]:
        """Server-wide counters for ``GET /stats``."""
        by_state: dict[str, int] = {}
        for session in self._sessions.values():
            by_state[session.state] = by_state.get(session.state, 0) + 1
        return {
            "schema": SERVE_SCHEMA,
            "sessions_total": len(self._sessions),
            "sessions_active": self.active_count,
            "max_sessions": self.max_sessions,
            "by_state": by_state,
            "telemetry": {
                "published": self.published,
                "dropped": self.dropped_total,
            },
        }
