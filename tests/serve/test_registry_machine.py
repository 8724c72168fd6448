"""Stated invariants of :class:`SessionRegistry`, checked on generated histories.

A Hypothesis state machine drives one registry with small bounds (cap 3,
ring of 4 lines, subscriber queues of 3) through every public operation
in any order and compares it, after every step, with a model that is
nothing but lists:

* a terminal state never regresses, whatever arrives afterwards;
* every subscriber's queue holds exactly what a drop-oldest list of the
  same bound would: so it sees end-of-stream last, behind every line
  published before ``finish`` that was not dropped, and per subscriber
  delivered + queued + dropped == offered;
* ``published == Σ session.records`` and ``dropped_total == Σ
  session.dropped``;
* ``active_count`` (what the cap is checked against, O(1)) equals a
  recount over every session, and ``queued`` is the sessions created but
  neither taken by a worker nor finished, oldest first.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.serve.registry import ServerFull, SessionRecord, SessionRegistry
from repro.serve.spec import TERMINAL_STATES, SessionSpec

CAP, RING, QUEUE = 3, 4, 3

index = st.integers(min_value=0, max_value=63)


@dataclass
class Subscriber:
    """A real subscriber queue beside the list it must behave as."""

    queue: asyncio.Queue[bytes | None]
    expected: list[bytes | None] = field(default_factory=list)
    offered: int = 0
    dropped: int = 0
    delivered: list[bytes | None] = field(default_factory=list)

    def offer(self, item: bytes | None) -> None:
        if len(self.expected) == QUEUE:
            self.dropped += self.expected.pop(0) is not None
        self.expected.append(item)
        self.offered += item is not None


@dataclass
class Model:
    """What the machine expects one session to look like."""

    real: SessionRecord
    state: str = "queued"
    cancel_reason: str | None = None
    error: str | None = None
    lines: list[bytes] = field(default_factory=list)
    subscribers: list[Subscriber] = field(default_factory=list)
    #: Every subscriber the session ever had (drops stay counted).
    attached: list[Subscriber] = field(default_factory=list)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class RegistryMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.registry = SessionRegistry(
            max_sessions=CAP, buffer_records=RING, queue_size=QUEUE
        )
        self.sessions: list[Model] = []
        self.fifo: list[Model] = []
        self.serial = 0

    def pick(self, i: int) -> Model:
        return self.sessions[i % len(self.sessions)]

    def finish_model(self, m: Model, state: str, error: str | None = None) -> None:
        if m.terminal:
            return
        m.state, m.error = state, error
        if m in self.fifo:
            self.fifo.remove(m)
        for sub in m.subscribers:
            sub.offer(None)
        m.subscribers = []

    # -- the operations ------------------------------------------------------
    @rule()
    def create(self) -> None:
        if sum(not m.terminal for m in self.sessions) >= CAP:
            with pytest.raises(ServerFull):
                self.registry.create(SessionSpec())
            return
        m = Model(self.registry.create(SessionSpec()))
        assert m.real.id not in {other.real.id for other in self.sessions}
        self.sessions.append(m)
        self.fifo.append(m)

    @precondition(lambda self: self.fifo)
    @rule()
    def take(self) -> None:
        """What a dispatch does: pop the oldest, the worker says started."""
        m = self.fifo.pop(0)
        assert self.registry.queued.popleft() is m.real
        self.registry.mark_started(m.real.id, 4242)
        m.state = "running"

    @precondition(lambda self: self.sessions)
    @rule(i=index, n=st.integers(min_value=1, max_value=5))
    def publish(self, i: int, n: int) -> None:
        m = self.pick(i)
        frame = [b"%d\n" % (self.serial + k) for k in range(n)]
        self.serial += n
        self.registry.publish(m.real.id, frame)
        if m.terminal:  # a straggler behind the outcome changes nothing
            return
        m.lines += frame
        for sub in m.subscribers:
            for line in frame:
                sub.offer(line)

    @precondition(lambda self: self.sessions)
    @rule(i=index)
    def attach(self, i: int) -> None:
        m = self.pick(i)
        replay, queue = self.registry.attach(m.real.id)
        assert replay == m.lines[-RING:]
        assert (queue is None) == m.terminal
        if queue is not None:
            sub = Subscriber(queue)
            m.subscribers.append(sub)
            m.attached.append(sub)

    @precondition(lambda self: any(m.attached for m in self.sessions))
    @rule(i=index, j=index, n=st.integers(min_value=1, max_value=QUEUE + 1))
    def read(self, i: int, j: int, n: int) -> None:
        """A consumer takes up to *n* items: exactly the model's oldest."""
        watched = [m for m in self.sessions if m.attached]
        sub = (subs := watched[i % len(watched)].attached)[j % len(subs)]
        for _ in range(min(n, sub.queue.qsize())):
            item = sub.queue.get_nowait()
            assert item == sub.expected.pop(0)
            assert None not in sub.delivered, "an item behind end-of-stream"
            sub.delivered.append(item)

    @precondition(lambda self: any(m.subscribers for m in self.sessions))
    @rule(i=index, j=index)
    def detach(self, i: int, j: int) -> None:
        live = [m for m in self.sessions if m.subscribers]
        m = live[i % len(live)]
        sub = m.subscribers.pop(j % len(m.subscribers))
        self.registry.detach(m.real.id, sub.queue)
        self.registry.detach(m.real.id, sub.queue)  # idempotent

    @precondition(lambda self: self.sessions)
    @rule(i=index, state=st.sampled_from(sorted(TERMINAL_STATES)))
    def finish(self, i: int, state: str) -> None:
        m = self.pick(i)
        self.registry.finish(m.real.id, state, error="E" if state == "failed" else None)
        self.finish_model(m, state, "E" if state == "failed" else None)

    @precondition(lambda self: self.sessions)
    @rule(
        i=index,
        outcome=st.sampled_from(
            [None, {"ok": False, "error": "boom"}, {"ok": True, "report": {"runs": []}}]
        ),
    )
    def apply_outcome(self, i: int, outcome: dict[str, Any] | None) -> None:
        m = self.pick(i)
        was_terminal = m.terminal
        self.registry.apply_outcome(m.real.id, outcome)
        if m.cancel_reason is not None:
            self.finish_model(m, "cancelled")
        elif outcome is not None and outcome["ok"]:
            self.finish_model(m, "done")
            assert was_terminal or m.real.report == outcome["report"]
        else:
            self.finish_model(m, "failed", "boom" if outcome else "worker returned no outcome")

    @precondition(lambda self: self.sessions)
    @rule(i=index)
    def request_cancel(self, i: int) -> None:
        m = self.pick(i)
        reason = f"reason {self.serial}"
        assert self.registry.request_cancel(m.real.id, reason) is m.real
        if m.terminal:
            return
        m.cancel_reason = reason
        if m in self.fifo:  # still queued: dies now; taken: only marked
            self.finish_model(m, "cancelled")

    # -- what must hold after every step ------------------------------------
    @invariant()
    def sessions_match_the_model(self) -> None:
        for m in self.sessions:
            real = m.real
            assert real.state == m.state, (real.id, real.state, m.state)
            assert real.error == m.error
            assert real.cancel_reason == m.cancel_reason
            assert real.terminal == real.done_event.is_set()
            assert real.records == len(m.lines)
            assert list(real.buffer) == m.lines[-RING:]
            assert real.subscribers == [sub.queue for sub in m.subscribers]
            assert not (real.terminal and real.subscribers)
            assert real.dropped == sum(sub.dropped for sub in m.attached)
            assert (real.report is not None) <= (real.state == "done")

    @invariant()
    def subscribers_conserve_lines(self) -> None:
        for m in self.sessions:
            for sub in m.attached:
                queued = list(sub.queue._queue)  # type: ignore[attr-defined]
                assert queued == sub.expected
                seen = [x for x in sub.delivered + queued if x is not None]
                assert len(seen) + sub.dropped == sub.offered
                # In publish order, and end-of-stream only ever last.
                assert seen == sorted(seen, key=lambda line: int(line))
                assert None not in (sub.delivered + queued)[:-1]

    @invariant()
    def totals_are_sums(self) -> None:
        reg = self.registry
        assert reg.published == sum(m.real.records for m in self.sessions)
        assert reg.dropped_total == sum(m.real.dropped for m in self.sessions)
        recount = sum(not m.real.terminal for m in self.sessions)
        assert reg.active_count == recount == len(reg.active()) <= CAP
        assert reg.stats()["sessions_active"] == recount
        assert list(reg.queued) == [m.real for m in self.fifo]
        assert [s.id for s in reg.list()] == [m.real.id for m in self.sessions]
        # The fleet aggregate saw each terminal transition once, drops and all.
        totals = reg.aggregate.as_dict()["aggregate"]["totals"]
        assert totals["sessions_total"] == len(self.sessions) - recount
        assert totals["telemetry_dropped"] == sum(
            m.real.dropped for m in self.sessions if m.terminal
        )


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
