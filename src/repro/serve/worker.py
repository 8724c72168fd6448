"""What runs inside a worker process.

The server pre-forks ``workers`` processes, each looping in
:func:`worker_main` on its end of one duplex pipe: receive a
``(session_id, spec_dict)`` job, answer with frames — ``("started",
pid)``, then ``("telemetry", [line, ...])`` batches, then ``("outcome",
dict)`` as the session's final frame — and wait for the next job.  One
ordered byte stream per worker is what makes "end-of-stream follows
the final snapshot" hold by construction.  A run that raises becomes an
``{"ok": False, ...}`` outcome rather than an exception, so one bad
session never looks like a dead worker.

Workers also ignore ``SIGINT``: an interactive Ctrl-C on ``repro
serve`` reaches the whole process group, and graceful drain requires
the parent — not the workers — to decide what finishes and what is
cancelled.
"""

from __future__ import annotations

import json
import os
import signal
from time import monotonic
from typing import Any

from repro.obs.export import REPORT_SCHEMA, report_run
from repro.serve.scenarios import build_scenario
from repro.serve.spec import SessionSpec

__all__ = ["worker_main", "run_session", "PipeSink"]

#: Wall-clock slice one telemetry frame covers: the first record of a
#: slice leaves at once, the rest of it rides the next frame.
FRAME_SLICE_S = 0.004


class PipeSink:
    """A TelemetrySink framing encoded records onto the worker's pipe.

    Each record is encoded once, here, exactly as ``JsonlSink`` writes
    it; the server ring-buffers and fans out these bytes verbatim.
    """

    def __init__(self, conn: Any) -> None:
        self.conn = conn
        self.lines: list[bytes] = []
        self.deadline = 0.0

    def emit(self, record: dict[str, Any]) -> None:
        self.lines.append((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
        if monotonic() >= self.deadline:
            self.close()

    def close(self) -> None:
        """Flush the open frame (the sink holds nothing else)."""
        if self.lines:
            self.conn.send(("telemetry", self.lines))
            self.lines = []
        self.deadline = monotonic() + FRAME_SLICE_S


def worker_main(conn: Any) -> None:
    """Serve jobs from *conn* until ``None`` or end-of-file."""
    # A respawned worker is forked under the loop's signal handlers: it
    # must not write to the server's wakeup socket, nor outlive SIGTERM.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            job = conn.recv()
        except (EOFError, OSError):
            return
        if job is None:
            return
        run_session(*job, conn=conn)


def run_session(
    session_id: str, spec_dict: dict[str, Any], conn: Any = None
) -> dict[str, Any]:
    """Execute one session; returns a pickle-able outcome dict.

    With a pipe, sends ``started`` first (the server flips the session
    to ``running`` and learns the worker pid), runs the scenario with a
    :class:`PipeSink` spliced into its telemetry sinks, and sends the
    outcome behind the last telemetry frame.  Works pipe-less too
    (in-process calls): the benchmark harness uses that mode to measure
    pure session throughput.
    """
    if conn is not None:
        conn.send(("started", os.getpid()))
    outcome: dict[str, Any]
    prov_path: str | None = None
    try:
        spec = SessionSpec.from_dict(spec_dict)
        build = build_scenario(spec)
        overrides: dict[str, Any] = {}
        if conn is not None:
            overrides["telemetry_sinks"] = (*build.options.telemetry_sinks, PipeSink(conn))
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
    if conn is not None:
        # The facade closed the sink on either path, so the last
        # telemetry frame is already ahead of this one on the pipe.
        conn.send(("outcome", outcome))
    return outcome
