"""Boundary tracing from outside: timing wrappers around each layer's entry points.

``install`` replaces the entry points listed in :data:`TARGETS` with
wrappers that open a span on entry and close it on exit.  A span's
*self* time is its duration minus the durations of the spans opened
inside it, so a layer is charged only for the time spent in its own
code.  Generator entry points (``ProcessContext.export``, the vMPI
collectives, the coupler's service processes) are timed per resumption:
the virtual-time wait between two resumptions is not busy time.

Nothing under ``src/`` knows about this module; ``uninstall`` puts every
original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: layer -> entry points, as ``module:function`` or ``module:Class.method``.
#: Names starting with ``_`` are not public API: they are wrapped so the
#: coupler's own service processes and its inline redistribution are not
#: booked as DES time, and are skipped (and counted in
#: ``trace.wrappers_missing``) when a refactor removes them.
TARGETS: dict[str, tuple[str, ...]] = {
    "api": ("repro.api.facade:build", "repro.api.facade:run"),
    "des": ("repro.des.core:Simulator.run",),
    "vmpi": tuple(
        f"repro.vmpi.des_backend:DesCommunicator.{m}"
        for m in (
            "send", "recv", "sendrecv", "bcast", "reduce", "allreduce", "barrier",
            "gather", "scatter", "allgather", "alltoall", "scan", "exscan",
            "reduce_scatter",
        )
    ),
    "coupler": tuple(
        f"repro.core.coupler:{m}"
        for m in (
            "ProcessContext.export", "ProcessContext.import_",
            "ProcessContext.import_begin", "ProcessContext.import_wait",
            "ProcessContext.compute",
            "ProcessContext.compute_elements", "CoupledSimulation.add_program",
            "CoupledSimulation._finalize_setup", "CoupledSimulation._agent_proc",
            "CoupledSimulation._rep_proc", "CoupledSimulation._telemetry_proc",
        )
    ),
    # The user's program bodies, resumed by the coupler: their self time is
    # what is left after every framework call they make.
    "program": ("repro.core.coupler:CoupledSimulation._main_proc",),
    "exporter": tuple(
        f"repro.core.exporter:{m}"
        for m in (
            "RegionExportState.on_export", "RegionExportState.on_request",
            "RegionExportState.on_buddy_answer", "RegionExportState.collect_evictions",
            "RegionExportState.close", "ConnectionExportState.newly_decidable",
        )
    ),
    "buffers": tuple(
        f"repro.core.buffers:BufferManager.{m}"
        for m in ("buffer", "free", "free_below", "free_all", "mark_sent", "record_cost")
    ),
    "rep": (
        "repro.core.rep:ExporterRep.on_request",
        "repro.core.rep:ExporterRep.on_response",
        "repro.core.rep:ImporterRep.on_process_request",
        "repro.core.rep:ImporterRep.on_answer",
        "repro.match.aggregate:aggregate_responses",
    ),
    "match": (
        "repro.match.engine:MatchEngine.record_export",
        "repro.match.engine:MatchEngine.evaluate",
        "repro.match.engine:MatchEngine.evaluate_batch",
        "repro.match.sorted_engine:SortedMatchEngine.evaluate",
        "repro.match.sorted_engine:SortedMatchEngine.evaluate_batch",
        "repro.match.sorted_engine:SortedMatchEngine.sweep",
    ),
    "data": (
        "repro.data.schedule:CommSchedule.build",
        "repro.data.schedule:CommSchedule.build_cached",
        "repro.data.redistribute:redistribute_pure",
        "repro.data.redistribute:extract_block",
        "repro.data.redistribute:insert_block",
        "repro.core.coupler:CoupledSimulation._send_pieces",
        "repro.core.coupler:ProcessContext._assemble",
    ),
    "costs": (
        "repro.costs.models:MemoryCostModel.memcpy_time",
        "repro.costs.models:MemoryCostModel.skip_time",
        "repro.costs.models:MemoryCostModel.free_buffers_time",
        "repro.costs.models:NetworkCostModel.transfer_time",
        "repro.costs.models:NetworkCostModel.congestion",
        "repro.costs.models:ComputeCostModel.iteration_time",
    ),
    "apps": (
        "repro.apps.diffusion:WaveSolver2D.step_des",
        "repro.apps.forcing:evaluate_on_region",
        "repro.apps.halo:halo_exchange",
    ),
    "obs": (
        "repro.obs.collect:collect_metrics",
        "repro.obs.paper:compute_paper_metrics",
        "repro.obs.trace:build_causal_report",
        "repro.obs.trace:CausalLog.record",
        "repro.obs.prov:report_payload",
        "repro.obs.prov:causal_payload",
        "repro.obs.prov:read_log",
        "repro.obs.prov:validate_provenance_log",
        "repro.obs.prov:build_header",
        "repro.obs.prov:ProvenanceRecorder.on_wire",
        "repro.obs.prov:ProvenanceRecorder.on_match",
        "repro.obs.prov:ProvenanceRecorder.on_op",
        "repro.obs.prov:ProvenanceRecorder.on_rng",
        "repro.obs.prov:ProvenanceRecorder.finalize",
        "repro.obs.prov:ProvenanceRecorder.close",
        "repro.obs.replay:replay",
        "repro.obs.stream:build_snapshot",
        "repro.obs.stream:JsonlSink.emit",
    ),
    "serve": tuple(
        f"repro.serve.client:ServeClient.{m}" for m in ("submit", "telemetry", "report")
    ),
    "model": ("repro.analysis.model.checker:check",),
}

#: Most spans kept for ``trace-<workload>.json``; aggregates cover all of them.
SPAN_CAP = 200_000


class _ThreadState:
    """One thread's open-span stack, aggregates and kept spans."""

    def __init__(self) -> None:
        #: Open spans: ``[start, seconds in child spans, span id]``.
        self.stack: list[list[Any]] = []
        #: index -> ``[spans, seconds inside, self seconds]``.
        self.agg: dict[int, list[Any]] = {}
        #: index -> generators created (their spans are resumptions).
        self.created: dict[int, int] = {}
        self.top_level = 0.0
        self.spans: list[tuple[int, float, float, int, int, int]] = []
        self.next_id = 0


class Tracer:
    """Collects spans from the installed wrappers."""

    def __init__(self) -> None:
        self.names: list[tuple[str, str]] = []  # index -> (layer, entry point)
        self.missing: list[str] = []
        #: Identifier shared by the spans of one repetition.
        self.op = 0
        self.keep_spans = False
        self._tls = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    # enter/exit run once per span, a few hundred thousand times per
    # repetition: they are written for few attribute look-ups, not looks.
    def enter(self) -> _ThreadState:
        try:
            state: _ThreadState = self._tls.state
        except AttributeError:
            state = self._tls.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        frame = [0.0, 0.0, state.next_id]
        state.next_id += 1
        state.stack.append(frame)
        frame[0] = perf_counter()
        return state

    def exit(self, state: _ThreadState, index: int) -> None:
        end = perf_counter()
        stack = state.stack
        start, children, span_id = stack.pop()
        duration = end - start
        agg = state.agg.get(index)
        if agg is None:
            agg = state.agg[index] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        if stack:
            stack[-1][1] += duration
        else:
            state.top_level += duration
        if self.keep_spans and len(state.spans) < SPAN_CAP:
            parent = stack[-1][2] if stack else -1
            state.spans.append((index, start, end, span_id, parent, self.op))

    # -- wrapping --------------------------------------------------------------
    def wrap(self, layer: str, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """A wrapper timing *fn* as one span per call (or per resumption)."""
        index = len(self.names)
        self.names.append((layer, name))
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args: Any, **kwargs: Any) -> Any:
                gen = fn(*args, **kwargs)
                value: Any = None
                thrown: BaseException | None = None
                first = True
                while True:
                    state = enter()
                    if first:
                        first = False
                        state.created[index] = state.created.get(index, 0) + 1
                    try:
                        if thrown is not None:
                            item = gen.throw(thrown)
                        else:
                            item = gen.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_(state, index)
                    try:
                        value = yield item
                        thrown = None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:
                        thrown = exc

            wrapper: Callable[..., Any] = gen_wrapper
        else:

            def call_wrapper(*args: Any, **kwargs: Any) -> Any:
                state = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(state, index)

            wrapper = call_wrapper
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def install(self, targets: dict[str, tuple[str, ...]] = TARGETS) -> None:
        """Wrap every entry point of *targets* that exists."""
        for layer, entries in targets.items():
            for entry in entries:
                if not self._install_one(layer, entry):
                    self.missing.append(entry)

    def _install_one(self, layer: str, entry: str) -> bool:
        module_name, _, path = entry.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                return False
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = self.wrap(layer, path, fn)
            self._set(owner, attr, kind(wrapped) if kind else wrapped, raw)
            return True
        fn = getattr(module, path, None)
        if fn is None:
            return False
        wrapped = self.wrap(layer, path, fn)
        # ``from x import f`` copies the reference: replace every copy.
        for other in list(sys.modules.values()):
            if other is not None and getattr(other, "__name__", "").startswith("repro"):
                for attr, value in list(vars(other).items()):
                    if value is fn:
                        self._set(other, attr, wrapped, fn)
        return True

    def _set(self, owner: Any, attr: str, new: Any, old: Any) -> None:
        self._originals.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original back."""
        while self._originals:
            owner, attr, old = self._originals.pop()
            setattr(owner, attr, old)

    # -- reading ---------------------------------------------------------------
    def _merged(self) -> tuple[dict[int, list[float]], float, int]:
        """index -> [calls, seconds inside, self seconds]; top-level seconds; spans."""
        with self._lock:
            states = list(self._states)
        merged: dict[int, list[float]] = {}
        for state in states:
            for index, (spans, total, own) in list(state.agg.items()):
                row = merged.setdefault(index, [0.0, 0.0, 0.0])
                # A generator entry point is called once however often it resumes.
                row[0] += state.created.get(index, spans)
                row[1] += total
                row[2] += own
        top_level = sum(state.top_level for state in states)
        return merged, top_level, sum(state.next_id for state in states)

    def totals(self) -> dict[str, float]:
        """Entry point -> seconds inside it (children included) so far."""
        return self.summary()["totals"]  # type: ignore[no-any-return]

    def summary(self) -> dict[str, Any]:
        """Everything recorded so far, over every thread, as plain data.

        ``layers`` maps layer -> ``{"calls", "self_s", "total_s"}``,
        ``totals`` and ``calls`` map entry point -> seconds inside it
        (children included) and calls of it, ``top_level_s`` is the time
        under any wrapper at all (the sum of the outermost spans).
        """
        merged, top_level, spans = self._merged()
        layers = {layer: {"calls": 0.0, "self_s": 0.0, "total_s": 0.0} for layer, _ in self.names}
        calls: dict[str, float] = {}
        totals: dict[str, float] = {}
        for index, (n, total, own) in merged.items():
            layer, name = self.names[index]
            layers[layer]["calls"] += n
            layers[layer]["total_s"] += total
            layers[layer]["self_s"] += own
            calls[name] = calls.get(name, 0.0) + n
            totals[name] = totals.get(name, 0.0) + total
        return {
            "layers": layers,
            "totals": totals,
            "calls": calls,
            "top_level_s": top_level,
            "spans": spans,
            "missing": list(self.missing),
        }

    def write(self, path: Path, meta: dict[str, Any], summary: dict[str, Any]) -> None:
        """Write the kept spans, columnar, beside the per-layer *summary*."""
        with self._lock:
            states = list(self._states)
        origin = min((s.spans[0][1] for s in states if s.spans), default=0.0)
        rows = [
            (thread, index, round(start - origin, 7), round(end - origin, 7), span_id, parent, op)
            for thread, state in enumerate(states)
            for index, start, end, span_id, parent, op in state.spans
        ]
        keys = ("thread", "name", "start_s", "end_s", "id", "parent", "op")
        payload = {
            "schema": "perf.trace/v1",
            **meta,
            "names": [{"layer": layer, "entry": entry} for layer, entry in self.names],
            "layers": summary["layers"],
            "spans_total": summary["spans"],
            "spans_kept": len(rows),
            "spans": {key: list(column) for key, column in zip(keys, zip(*rows))}
            or {key: [] for key in keys},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")
