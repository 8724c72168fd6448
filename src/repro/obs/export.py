"""Export formats: Chrome ``trace_event`` JSON and payload validators.

:func:`chrome_trace` converts a :class:`~repro.obs.spans.TimelineSet`
into the Trace Event Format understood by ``chrome://tracing`` and
Perfetto: one *process* per coupled program, one *thread* per rank
(the program's rep gets its own thread), complete events (``ph: "X"``)
for spans, thread-scoped instants (``ph: "i"``) for trace events, and
metadata records naming both.  Virtual seconds are scaled to
microseconds — the viewer's native unit — so a 2.5-second acceptance
region reads as 2.5 s on the ruler.

The validators are deliberately hand-rolled (the repo takes no schema
dependency): they return a list of human-readable problems, empty when
the payload conforms.  CI runs them against real ``repro trace
--chrome`` and ``repro run --json`` output.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.spans import TimelineSet
from repro.obs.trace import CausalReport

#: Version tag stamped into (and required of) ``repro run --json``.
REPORT_SCHEMA = "repro.report/v1"


def _split_who(who: str) -> tuple[str, str]:
    """``"F.p1"`` → ``("F", "p1")``; unqualified names get one process."""
    if "." in who:
        prog, _, thread = who.partition(".")
        return prog, thread
    return who, who


def _thread_sort_key(thread: str) -> tuple[int, int | str]:
    # Ranks first in numeric order, then rep/other threads by name.
    if thread.startswith("p") and thread[1:].isdigit():
        return (0, int(thread[1:]))
    return (1, thread)


def chrome_trace(
    timelines: TimelineSet,
    *,
    time_scale: float = 1e6,
    causal: CausalReport | None = None,
) -> dict[str, Any]:
    """Render *timelines* as a Chrome ``trace_event`` JSON object.

    With *causal* given, every happens-before edge of the causal DAG
    additionally becomes a flow-event pair (``ph: "s"`` at the parent
    span, ``ph: "f"`` with ``bp: "e"`` at the child) and every causal
    span a thread-scoped instant — the viewer then draws arrows along
    each import's resolution chain.
    """
    programs: dict[str, dict[str, int]] = {}
    causal_whos = (
        sorted({s.who for s in causal.spans}) if causal is not None else []
    )
    for who in list(timelines.whos()) + causal_whos:
        prog, thread = _split_who(who)
        programs.setdefault(prog, {})[thread] = 0
    pids = {prog: i + 1 for i, prog in enumerate(sorted(programs))}
    tids: dict[str, dict[str, int]] = {}
    for prog, threads in programs.items():
        ordered = sorted(threads, key=_thread_sort_key)
        tids[prog] = {thread: i + 1 for i, thread in enumerate(ordered)}

    events: list[dict[str, Any]] = []
    for prog in sorted(programs):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[prog],
                "tid": 0,
                "args": {"name": prog},
            }
        )
        for thread, tid in sorted(tids[prog].items(), key=lambda kv: kv[1]):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pids[prog],
                    "tid": tid,
                    "args": {"name": thread},
                }
            )

    for who in timelines.whos():
        prog, thread = _split_who(who)
        pid, tid = pids[prog], tids[prog][thread]
        tl = timelines.timelines[who]
        for span in tl.spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "span",
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": span.start * time_scale,
                    "dur": span.duration * time_scale,
                    "args": {str(k): v for k, v in span.args.items()},
                }
            )
        for event in tl.events:
            events.append(
                {
                    "name": event.kind,
                    "cat": "trace",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": tid,
                    "ts": event.time * time_scale,
                    "args": {str(k): v for k, v in event.detail.items()},
                }
            )

    if causal is not None:
        by_id = {s.span_id: s for s in causal.spans}
        for span in causal.spans:
            prog, thread = _split_who(span.who)
            events.append(
                {
                    "name": span.name,
                    "cat": "causal",
                    "ph": "i",
                    "s": "t",
                    "pid": pids[prog],
                    "tid": tids[prog][thread],
                    "ts": span.time * time_scale,
                    "args": {
                        "span_id": span.span_id,
                        "trace_id": span.trace_id,
                        **{str(k): v for k, v in span.attrs.items()},
                    },
                }
            )
        edge_id = 0
        for parent_id, child_id in causal.edges():
            parent = by_id[parent_id]
            child = by_id[child_id]
            edge_id += 1
            for span, ph in ((parent, "s"), (child, "f")):
                prog, thread = _split_who(span.who)
                ev: dict[str, Any] = {
                    "name": "causal",
                    "cat": "causal",
                    "ph": ph,
                    "id": edge_id,
                    "pid": pids[prog],
                    "tid": tids[prog][thread],
                    "ts": span.time * time_scale,
                }
                if ph == "f":
                    ev["bp"] = "e"
                events.append(ev)

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    timelines: TimelineSet,
    *,
    time_scale: float = 1e6,
    causal: CausalReport | None = None,
) -> Path:
    """Write :func:`chrome_trace` output to *path*; returns the path."""
    out = Path(path)
    out.write_text(
        json.dumps(chrome_trace(timelines, time_scale=time_scale, causal=causal))
        + "\n"
    )
    return out


_PHASES_WITH_DUR = {"X"}
_KNOWN_PHASES = {"X", "i", "M", "B", "E", "C", "s", "t", "f"}
#: Flow phases: binding pairs that must share an ``id``.
_FLOW_PHASES = {"s", "t", "f"}


def validate_chrome_trace(obj: Any) -> list[str]:
    """Problems that would stop ``chrome://tracing`` loading *obj*.

    Flow events (``ph`` in ``s``/``t``/``f``) must carry an ``id``, and
    every flow-finish (``f``) id must have a matching flow-start (``s``).
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    flow_starts: set[Any] = set()
    flow_finishes: list[tuple[str, Any]] = []
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                problems.append(f"{where}: {key} must be an int")
        if ph == "M":
            continue  # metadata carries no timestamp
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if ph in _PHASES_WITH_DUR:
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: dur must be a non-negative number")
        if ph == "i" and e.get("s") not in (None, "t", "p", "g"):
            problems.append(f"{where}: instant scope must be t, p or g")
        if ph in _FLOW_PHASES:
            fid = e.get("id")
            if not isinstance(fid, (int, str)):
                problems.append(f"{where}: flow event needs an id")
                continue
            if ph == "s":
                flow_starts.add(fid)
            else:
                flow_finishes.append((where, fid))
    for where, fid in flow_finishes:
        if fid not in flow_starts:
            problems.append(f"{where}: flow finish id {fid!r} has no flow start")
    return problems


def _check_metrics_block(block: Any, where: str) -> list[str]:
    problems: list[str] = []
    if not isinstance(block, dict):
        return [f"{where}: metrics must be an object"]
    samples = block.get("metrics")
    if not isinstance(samples, list):
        return [f"{where}: metrics.metrics must be a list"]
    for i, s in enumerate(samples):
        spot = f"{where}.metrics[{i}]"
        if not isinstance(s, dict):
            problems.append(f"{spot}: not an object")
            continue
        if not isinstance(s.get("name"), str):
            problems.append(f"{spot}: missing name")
        if s.get("kind") not in ("counter", "gauge", "histogram", "timer"):
            problems.append(f"{spot}: bad kind {s.get('kind')!r}")
        if not isinstance(s.get("labels"), dict):
            problems.append(f"{spot}: labels must be an object")
        if not isinstance(s.get("value"), (int, float)):
            problems.append(f"{spot}: value must be a number")
    paper = block.get("paper")
    if paper is not None:
        if not isinstance(paper, dict):
            problems.append(f"{where}: paper must be an object")
        else:
            for key in ("t_ub_total", "t_ub_no_help_estimate", "t_ub_saving"):
                if not isinstance(paper.get(key), (int, float)):
                    problems.append(f"{where}: paper.{key} must be a number")
    return problems


def report_run(name: str, result: Any, *, backend_sample: bool = True) -> dict[str, Any]:
    """One run's row of a ``repro.report/v1`` payload.

    ``backend_sample=False`` drops the backend-identifying sample, so a
    provenance log recorded under one match backend stays comparable
    when decisions (not throughput internals) are what is replayed.
    """
    metrics = result.metrics.as_dict()
    if not backend_sample:
        metrics["metrics"] = [
            s for s in metrics["metrics"] if s.get("name") != "match.backend"
        ]
    return {
        "name": name,
        "sim_time": result.sim_time,
        "counters": dict(result.counters),
        "metrics": metrics,
    }


def validate_report_payload(obj: Any) -> list[str]:
    """Problems with a ``repro.report/v1`` payload.

    ``runs`` (``repro run --json``) is required unless the payload
    carries an ``aggregate`` block (``GET /fleet``) or an ``alerts``
    block (``repro watch --json`` and its ``--alerts`` lines).
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    if obj.get("schema") != REPORT_SCHEMA:
        problems.append(f"schema must be {REPORT_SCHEMA!r}, got {obj.get('schema')!r}")
    # Optional (added with the pluggable match backends): which engine
    # produced the runs.  Tolerant — absent in older payloads.
    backend = obj.get("match_backend")
    if backend is not None and not isinstance(backend, str):
        problems.append("match_backend must be a string when present")
    aggregate, alerts = obj.get("aggregate"), obj.get("alerts")
    if aggregate is not None and not (
        isinstance(aggregate, dict) and isinstance(aggregate.get("groups"), dict)
    ):
        problems.append("aggregate must be an object with a groups object")
    if alerts is not None and not (
        isinstance(alerts, list) and all(isinstance(a, dict) for a in alerts)
    ):
        problems.append("alerts must be a list of objects")
    runs = obj.get("runs")
    if runs is None and (aggregate is not None or alerts is not None):
        runs = []
    elif not isinstance(runs, list) or not runs:
        return problems + ["runs must be a non-empty list"]
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(run.get("name"), str):
            problems.append(f"{where}: missing name")
        problems.extend(_check_metrics_block(run.get("metrics"), where))
    comparison = obj.get("comparison")
    if comparison is not None:
        if not isinstance(comparison, dict):
            problems.append("comparison must be an object")
        else:
            for key in ("t_ub_with_help", "t_ub_without_help", "t_ub_saving"):
                if not isinstance(comparison.get(key), (int, float)):
                    problems.append(f"comparison.{key} must be a number")
    return problems
