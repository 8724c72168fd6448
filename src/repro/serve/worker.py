"""What runs inside a pool worker process.

The server submits ``run_session(session_id, spec_dict)`` to a
:class:`~concurrent.futures.ProcessPoolExecutor` whose initializer
installed a shared telemetry queue (:func:`init_worker`).  The worker
rebuilds the scenario from the spec, attaches a :class:`QueueSink`
that forwards every ``repro.telemetry/v1`` snapshot back to the
server's event loop, drives the run to completion and returns a plain
pickle-able outcome dict — on failure an ``{"ok": False, ...}`` dict
rather than an exception, so one bad session never looks like a pool
fault.

Workers also ignore ``SIGINT``: an interactive Ctrl-C on ``repro
serve`` reaches the whole process group, and graceful drain requires
the parent — not the workers — to decide what finishes and what is
cancelled.
"""

from __future__ import annotations

import os
import signal
from typing import Any

from repro.obs.export import REPORT_SCHEMA, report_run
from repro.serve.scenarios import build_scenario
from repro.serve.spec import SessionSpec

__all__ = ["init_worker", "run_session", "QueueSink"]

#: Sentinel event key of control records on the telemetry queue.
CONTROL_KEY = "__serve__"

#: The telemetry queue installed by :func:`init_worker` (per process).
_QUEUE: Any = None


def init_worker(queue: Any) -> None:
    """Pool initializer: stash the shared queue, shield from SIGINT."""
    global _QUEUE
    _QUEUE = queue
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass


class QueueSink:
    """A TelemetrySink forwarding records to the server's queue.

    Records are tagged with the session id so one queue can carry all
    sessions; the server side fans them out to per-session subscriber
    queues.
    """

    def __init__(self, session_id: str, queue: Any) -> None:
        self.session_id = session_id
        self.queue = queue
        self.records = 0

    def emit(self, record: dict[str, Any]) -> None:
        self.queue.put((self.session_id, dict(record)))
        self.records += 1

    def close(self) -> None:  # nothing held open
        return None


def run_session(session_id: str, spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Execute one session; returns a pickle-able outcome dict.

    Emits a ``started`` control record first (the server flips the
    session to ``running`` and learns the worker pid), then runs the
    scenario with a :class:`QueueSink` spliced into its telemetry
    sinks.  Works queue-less too (``init_worker(None)`` or in-process
    calls): the benchmark harness uses that mode to measure pure
    session throughput.
    """
    queue = _QUEUE
    if queue is not None:
        queue.put((session_id, {CONTROL_KEY: "started", "pid": os.getpid()}))
    outcome: dict[str, Any]
    prov_path: str | None = None
    try:
        spec = SessionSpec.from_dict(spec_dict)
        build = build_scenario(spec)
        overrides: dict[str, Any] = {}
        if queue is not None:
            overrides["telemetry_sinks"] = build.options.telemetry_sinks + (
                QueueSink(session_id, queue),
            )
        if spec.provenance:
            # Captured to a worker-local temp file, shipped back as
            # text in the outcome (wire-safe), then unlinked — the
            # server keeps sessions stateless on the worker side.
            import tempfile

            fd, prov_path = tempfile.mkstemp(
                prefix=f"repro-{session_id}-", suffix=".prov"
            )
            os.close(fd)
            overrides["provenance"] = prov_path
        result = build.run(**overrides)
    except Exception as exc:  # noqa: BLE001 - reported to the server
        outcome = {
            "ok": False,
            "session": session_id,
            "error": f"{type(exc).__name__}: {exc}",
        }
    else:
        row = report_run(spec.label or session_id, result)
        outcome = {
            "ok": True,
            "session": session_id,
            "sim_time": result.sim_time,
            "counters": dict(result.counters),
            "report": {
                "schema": REPORT_SCHEMA,
                "runs": [{**row, "scenario": spec.scenario}],
            },
        }
    if prov_path is not None:
        try:
            with open(prov_path, encoding="utf-8") as fh:
                outcome["provenance"] = fh.read()
        except OSError:
            outcome["provenance"] = None
        finally:
            try:
                os.unlink(prov_path)
            except OSError:
                pass
    # The outcome rides the same FIFO queue as the telemetry, so the
    # server never finishes a session before its last snapshot landed
    # (an attached stream always sees the final line).  The future's
    # return value is kept as a fallback for queue-less use.
    if queue is not None:
        queue.put((session_id, {CONTROL_KEY: "outcome", "outcome": outcome}))
    return outcome
