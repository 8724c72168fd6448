"""SessionRegistry lifecycle, fan-out and backpressure (loop-level)."""

from __future__ import annotations

import asyncio
import json
from typing import Any

import pytest

from repro.serve.registry import ServerFull, SessionRegistry
from repro.serve.spec import SessionSpec


def run(coro: Any) -> Any:
    return asyncio.run(coro)


def rec(i: int, final: bool = False) -> bytes:
    """One encoded telemetry line, as a worker frames it."""
    record = {"schema": "repro.telemetry/v1", "time": float(i), "final": final}
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


def times(lines: Any) -> list[float]:
    return [json.loads(line)["time"] for line in lines]


class TestLifecycle:
    def test_unique_ids_and_cap(self):
        async def main() -> None:
            reg = SessionRegistry(max_sessions=2)
            a = reg.create(SessionSpec())
            b = reg.create(SessionSpec())
            assert a.id != b.id
            with pytest.raises(ServerFull):
                reg.create(SessionSpec())
            # Finished sessions stop counting against the cap.
            reg.finish(a.id, "done")
            c = reg.create(SessionSpec())
            assert len(reg.list()) == 3 and not c.terminal

        run(main())

    def test_started_control_flips_state(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            reg.mark_started(s.id, 4242)
            assert s.state == "running" and s.worker_pid == 4242

        run(main())

    def test_outcome_control_finishes_done(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            run_row = {"name": "demo", "sim_time": 1.5, "counters": {"ctl_messages": 3}}
            outcome = {
                "ok": True,
                "report": {"schema": "repro.report/v1", "runs": [run_row]},
            }
            reg.apply_outcome(s.id, outcome)
            assert s.state == "done"
            info = s.info()
            assert info["sim_time"] == 1.5 and info["counters"] == {"ctl_messages": 3}
            assert info["report_ready"]
            assert s.done_event.is_set()

        run(main())

    def test_cancel_reason_discards_outcome(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            # A worker took it off the FIFO: no longer cancellable.
            assert reg.queued.popleft() is s
            reg.mark_started(s.id, 4242)
            reg.request_cancel(s.id, "operator said so")
            assert s.state == "running"  # cannot preempt the worker
            reg.apply_outcome(s.id, {"ok": True, "report": {}})
            assert s.state == "cancelled"
            assert s.cancel_reason == "operator said so"
            assert s.report is None

        run(main())

    def test_failed_outcome(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            reg.apply_outcome(s.id, {"ok": False, "error": "boom"})
            assert s.state == "failed" and s.error == "boom"

        run(main())

    def test_finish_is_idempotent(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            reg.finish(s.id, "failed", error="first")
            reg.finish(s.id, "done")
            assert s.state == "failed" and s.error == "first"

        run(main())

    def test_finish_requires_terminal_state(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            with pytest.raises(ValueError):
                reg.finish(s.id, "running")

        run(main())


class TestFanOut:
    def test_attach_replays_buffer_then_streams(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            reg.publish(s.id, [rec(0)])
            replay, queue = reg.attach(s.id)
            assert times(replay) == [0.0]
            assert queue is not None
            reg.publish(s.id, [rec(1)])
            reg.finish(s.id, "done")
            assert await queue.get() == rec(1)  # the worker's bytes, verbatim
            assert await queue.get() is None  # end-of-stream sentinel

        run(main())

    def test_attach_terminal_session_gets_no_queue(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            reg.publish(s.id, [rec(0, final=True)])
            reg.finish(s.id, "done")
            replay, queue = reg.attach(s.id)
            assert queue is None and len(replay) == 1

        run(main())

    def test_slow_subscriber_drops_oldest_and_counts(self):
        async def main() -> None:
            reg = SessionRegistry(queue_size=4)
            s = reg.create(SessionSpec())
            _, queue = reg.attach(s.id)
            assert queue is not None
            # Frames of 1, 2, 3 and 4 lines: drops count lines, not frames.
            for frame in ([0], [1, 2], [3, 4, 5], [6, 7, 8, 9]):
                reg.publish(s.id, [rec(i) for i in frame])
            # 6 drops: the queue holds the 4 newest records.
            assert s.dropped == 6 and reg.dropped_total == 6
            assert s.info()["telemetry"]["dropped"] == 6
            assert s.records == 10 and reg.published == 10
            assert times(queue.get_nowait() for _ in range(4)) == [6.0, 7.0, 8.0, 9.0]

        run(main())

    def test_buffer_ring_is_bounded(self):
        async def main() -> None:
            reg = SessionRegistry(buffer_records=3)
            s = reg.create(SessionSpec())
            reg.publish(s.id, [rec(i) for i in range(5)])
            reg.publish(s.id, [rec(5), rec(6)])
            assert times(s.buffer) == [4.0, 5.0, 6.0]

        run(main())

    def test_detach_is_idempotent(self):
        async def main() -> None:
            reg = SessionRegistry()
            s = reg.create(SessionSpec())
            _, queue = reg.attach(s.id)
            assert queue is not None
            reg.detach(s.id, queue)
            reg.detach(s.id, queue)
            assert s.subscribers == []

        run(main())
