"""Per-layer metrics of a traced run: how each name in BENCHMARK.json is derived.

Times are seconds per traced repetition (total over the traced
repetitions divided by their number), so runs with different repetition
counts compare.  Counts are those of the last repetition, read from the
run's own counters (see ``Workload.layer_counts``); they repeat exactly.
A workload that does not cross a layer reports 0 for it.
"""

from __future__ import annotations

import statistics
from typing import Any

from perf.harness import SPEC

#: Every per-layer metric; units and directions are beside them in BENCHMARK.json.
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

#: Layers whose wrapper aggregates become ``<layer>.calls`` / ``<layer>.self_s``.
_CALLS = ("vmpi", "exporter", "buffers", "rep", "data", "costs", "obs")
_SELF = (
    "des", "vmpi", "coupler", "program", "exporter", "buffers", "rep", "match", "data",
    "costs", "apps", "obs", "model",
)
#: ``obs.*`` timings: metric -> the entry points whose time it sums.
_OBS_TIMES = {
    "obs.report_s": ("collect_metrics", "compute_paper_metrics", "report_payload"),
    "obs.causal_s": ("build_causal_report",),
    "obs.prov_read_s": ("read_log", "validate_provenance_log"),
    "obs.replay_run_s": ("replay",),
}
#: sampling-profiler phase -> the wrapper layers that cover the same code.
_PHASE_LAYERS = {
    "des_dispatch": ("des",),
    "match": ("match",),
    "rep_aggregation": ("rep",),
    "redistribution": ("data",),
    "wire": (),
}


def metrics(
    summary: dict[str, Any],
    untraced: list[Any],
    traced: list[Any],
    counts: dict[str, float],
    extras: dict[str, float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run.

    *summary* is ``Tracer.summary()`` taken right after the traced
    repetitions, *counts* and *extras* what the workload's hooks gave.
    """
    n = len(traced)
    wall = sum(rep.seconds for rep in traced)
    by_layer, totals, calls_of = summary["layers"], summary["totals"], summary["calls"]
    out = dict.fromkeys(PER_LAYER, 0.0)
    unknown = (counts.keys() | extras.keys()) - out.keys()
    if unknown:
        raise KeyError(f"not a per_layer metric of BENCHMARK.json: {sorted(unknown)}")
    out.update(counts)
    out.update(extras)
    for layer in _SELF:
        out[f"{layer}.self_s"] = by_layer.get(layer, {}).get("self_s", 0.0) / n
    for layer in _CALLS:
        out[f"{layer}.calls"] = by_layer.get(layer, {}).get("calls", 0.0) / n
    out["apps.steps"] = calls_of.get("WaveSolver2D.step_des", 0.0) / n
    out["api.build_s"] = totals.get("build", 0.0) / n
    out["api.run_s"] = totals.get("run", 0.0) / n
    for name, entries in _OBS_TIMES.items():
        out[name] = sum(totals.get(e, 0.0) for e in entries) / n
    for call in ("submit", "telemetry", "report"):
        calls = calls_of.get(f"ServeClient.{call}", 0.0)
        key = "serve.stream_s" if call == "telemetry" else f"serve.{call}_s"
        out[key] = totals.get(f"ServeClient.{call}", 0.0) / calls if calls else 0.0
    if out["serve.stream_s"]:
        # What a session spends beyond running: queueing for a worker,
        # pickling, and the telemetry pump.
        out["serve.queue_wait_s"] = out["serve.stream_s"] - out["serve.worker_run_s"]
    if out["des.self_s"]:
        out["des.events_per_self_s"] = out["des.events_dispatched"] / out["des.self_s"]
    if out["data.self_s"]:
        out["data.bytes_per_self_s"] = out["data.bytes"] / out["data.self_s"]
    out["trace.wall_s"] = wall / n
    out["trace.untraced_wall_s"] = statistics.median(rep.seconds for rep in untraced)
    out["trace.overhead_ratio"] = (
        statistics.median(rep.seconds for rep in traced) / out["trace.untraced_wall_s"]
    )
    out["trace.unattributed_share"] = max(0.0, 1.0 - summary["top_level_s"] / wall)
    out["trace.spans"] = summary["spans"] / n
    out["trace.wrappers_missing"] = float(len(summary["missing"]))
    return out


def cross_check(workload: Any, measured: dict[str, float]) -> dict[str, float]:
    """Wrapper-derived layer shares against the sampling profiler's phases.

    One more untraced repetition of *workload* under
    ``repro.obs.SamplingProfiler`` at 1 kHz (what ``RunOptions(profile=
    0.001)`` attaches); the result is wrapper share minus sampled share
    per phase, in percentage points of the repetition's wall time.  The
    two attribute differently by design: the sampler charges a sample to
    the innermost frame that belongs to a phase, the wrappers charge
    self time to the entry point's layer.
    """
    from repro.obs import SamplingProfiler

    profiler = SamplingProfiler(interval=0.001)
    profiler.start()
    try:
        workload.rep()
    finally:
        profile = profiler.stop()
    wall = measured["trace.wall_s"]
    out = {}
    for phase, layer_names in _PHASE_LAYERS.items():
        wrapped = sum(measured[f"{layer}.self_s"] for layer in layer_names) / wall
        out[f"xcheck.{phase}_pp"] = 100.0 * (wrapped - profile.phase_fraction(phase))
    return out
