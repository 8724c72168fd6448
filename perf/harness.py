"""Measuring one workload: the child that runs it and the parent that times its set-up.

A measured run is four fresh interpreters.  Each imports ``repro``,
generates the workload's inputs from the seed and runs one tiny warm-up
repetition, then says it is ready.  The first three stop there: the time
from spawn to that line is one ``setup_s`` sample each.  The fourth goes
on to repeat the workload for the requested seconds and reports.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Sequence

import numpy

from perf.calibrate import kernel_seconds, scaled, stolen_seconds, unstolen

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perf" / "out"
#: The contract: workloads and their reasons, every metric's unit,
#: direction and bound, and the run length.  Nothing here repeats it.
SPEC: dict[str, Any] = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Set-up-only interpreters per measured run, each giving one ``setup_s`` sample.
SETUP_SAMPLES = 3
#: A workload subprocess still running after this long is killed and
#: reported as a failed operation; the driver allows 180 s per run.
CHILD_TIMEOUT_S = 150.0
#: Share of a traced run's seconds spent on untraced repetitions first.
UNTRACED_SHARE = 0.3

READY = "@ready"
RESULT = "@result "


# -- statistics --------------------------------------------------------------
def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def failed_ratio(attempted: int, failed: int) -> float:
    return failed / attempted if attempted else 1.0


def environment(seed: int) -> dict[str, Any]:
    """What a ledger needs to say where its numbers came from."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "seed": seed,
    }


# -- the child ---------------------------------------------------------------
def _measure(workload: Any, seconds: float, tracer: Any = None) -> list[Any]:
    """Repeat *workload* until *seconds* have passed; always at least once.

    An untraced run brackets every repetition with the calibration kernel,
    so each knows how fast the host was around it.  A traced run (*tracer*
    is a Tracer, or False before it is installed) does not: repetitions
    and the spans inside them stay on one clock.
    """
    calibrate = tracer is None
    reps = []
    deadline = perf_counter() + seconds
    before = kernel_seconds() if calibrate else 0.0
    while True:
        gc.collect()
        if tracer:
            tracer.op += 1
        rep = workload.rep()
        if calibrate:
            after = kernel_seconds()
            rep.kernel_s = (before + after) / 2
            before = after
        reps.append(rep)
        if perf_counter() >= deadline:
            return reps


def _end_to_end(workload: Any, reps: list[Any]) -> dict[str, dict[str, float]]:
    """The child's end-to-end metrics, and the same figures before correction."""
    factors = [
        scaled(unstolen(rep.seconds, rep.stolen, workload.busy_cpus), rep.kernel_s) / rep.seconds
        for rep in reps
    ]
    return {
        "metrics": {
            "cal_wall_s": workload.wall_s(reps, factors),
            "cal_work_per_s": statistics.median(
                rep.work / (rep.seconds * f) for rep, f in zip(reps, factors)
            ),
            "peak_rss_mb": _peak_rss_mb(),
        },
        # What the two corrections were applied to, so that every ledger
        # and spread file shows what they changed; no bound hangs on these.
        "raw": {
            "wall_s": workload.wall_s(reps, [1.0] * len(reps)),
            "work_per_s": statistics.median(rep.work / rep.seconds for rep in reps),
            "stolen_s": sum(rep.stolen for rep in reps),
            "kernel_s": statistics.median(rep.kernel_s for rep in reps),
        },
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def run_child(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    """Body of one workload subprocess; talks to the parent over stdout."""
    from perf.workloads import WORKLOADS

    cls = WORKLOADS[name]
    failures: list[str] = []
    warm = cls(seed, tiny=True)
    try:
        failures += warm.rep().failures + warm.finish()
    finally:
        warm.close()
    workload = cls(seed)
    try:
        print(READY, flush=True)
        if setup_only:
            return 0
        if trace:
            reps, result = _traced(workload, seconds)
        else:
            reps = _measure(workload, seconds)
            result = _end_to_end(workload, reps)
        failures += [f for rep in reps for f in rep.failures] + workload.finish()
    finally:
        workload.close()
    result.update(
        attempted=sum(rep.ops for rep in reps), failures=failures, repetitions=len(reps)
    )
    print(RESULT + json.dumps(result), flush=True)
    return 0


def _traced(workload: Any, seconds: float) -> tuple[list[Any], dict[str, Any]]:
    from perf import layers
    from perf.tracing import Tracer

    untraced = _measure(workload, seconds * UNTRACED_SHARE, tracer=False)
    extras = workload.untraced_extra()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.keep_spans = True
        traced = _measure(workload, seconds * (1 - UNTRACED_SHARE), tracer)
        tracer.keep_spans = False
        # Frozen here: the hooks below run more code under the wrappers.
        summary = tracer.summary()
        tracer.write(
            OUT_DIR / f"trace-{workload.name}.json",
            {"workload": workload.name, "seed": workload.seed, "repetitions": len(traced)},
            summary,
        )
        extras.update(workload.traced_extra(tracer))
    finally:
        tracer.uninstall()
    metrics = layers.metrics(summary, untraced, traced, workload.layer_counts(), extras)
    if workload.cross_check:
        metrics.update(layers.cross_check(workload, metrics))
    return untraced + traced, {"metrics": metrics}


# -- the parent ----------------------------------------------------------------
def _spawn(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> dict[str, Any]:
    """Run one child; returns its set-up time, result and what went wrong."""
    cmd = [
        sys.executable, str(ROOT / "perf" / "run.py"), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--setup-only"] if setup_only else [])
    out: dict[str, Any] = {"setup_s": None, "stolen_s": 0.0, "result": None, "error": None}
    stolen = stolen_seconds()
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def on_timeout() -> None:
        out["error"] = f"timeout: no result after {CHILD_TIMEOUT_S:.0f} s"
        kill_group()

    watchdog = threading.Timer(CHILD_TIMEOUT_S, on_timeout)
    watchdog.start()
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith(READY):
                out["setup_s"] = perf_counter() - t0
                out["stolen_s"] = stolen_seconds() - stolen
            elif line.startswith(RESULT):
                out["result"] = json.loads(line[len(RESULT):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
    if out["error"] is None and code != 0:
        out["error"] = f"exit code {code}"
    try:  # the child led its own process group: nothing of it may survive
        os.killpg(proc.pid, 0)
    except ProcessLookupError:
        pass
    else:
        kill_group()
        out["error"] = out["error"] or "left processes behind"
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One measured run of *name*; the dict the CLI prints and the ledger keeps."""
    t0 = perf_counter()
    setups: list[tuple[float, float]] = []  # (corrected, as measured)
    problems: list[str] = []
    last: dict[str, Any] = {}
    samples = 0 if trace else SETUP_SAMPLES  # a traced run reports no set-up time
    before = kernel_seconds() if samples else 0.0
    for i in range(samples + 1):
        last = _spawn(name, seed, seconds, trace, setup_only=i < samples)
        if last["error"] is not None:
            problems.append(f"{name}/subprocess: {last['error']}")
            break
        if i < samples:
            # Corrected like a repetition: stolen time out, then the kernel
            # runs on either side.
            after = kernel_seconds()
            raw = last["setup_s"]
            setups.append((scaled(unstolen(raw, last["stolen_s"]), (before + after) / 2), raw))
            before = after
    result = last.get("result")
    if result is None:
        # A crash or hang is one failed operation with nothing to report.
        problems = problems or [f"{name}/subprocess: no result"]
        return {
            "workload": name, "correct": False, "attempted": 1, "failed": 1,
            "failures": problems, "metrics": {}, "elapsed_s": perf_counter() - t0,
        }
    failures = problems + result["failures"]
    run: dict[str, Any] = {
        "workload": name,
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": min(len(failures), result["attempted"]),
        "failures": failures,
        "repetitions": result["repetitions"],
        "metrics": result["metrics"],
    }
    if not trace:
        run["metrics"]["setup_s"] = statistics.median(s for s, _ in setups)
        run["raw"] = {**result["raw"], "setup_s": statistics.median(raw for _, raw in setups)}
    run["elapsed_s"] = perf_counter() - t0
    return run
