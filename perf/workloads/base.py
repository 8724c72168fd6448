"""What every workload gives the harness."""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterable, Sequence

from perf.calibrate import stolen_seconds


class Timed:
    """``with Timed() as t:`` brackets a timed region.

    Afterwards ``t.seconds`` is its wall time and ``t.stolen`` the time
    the hypervisor took from the machine during it, and only during it:
    a workload's output checks come after the block.
    """

    seconds = 0.0
    stolen = 0.0

    def __enter__(self) -> "Timed":
        self._stolen0 = stolen_seconds()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = perf_counter() - self._t0
        self.stolen = stolen_seconds() - self._stolen0


@dataclass
class RepOut:
    """Outcome of one repetition.

    ``seconds`` and ``stolen`` are those of the timed region (a
    :class:`Timed` block inside ``rep()``, so output checks stay
    outside); ``work`` is the repetition's size in the workload's own
    unit (the numerator of ``cal_work_per_s``); ``ops`` the operations
    attempted and ``failures`` one ``"workload/check: detail"`` line per
    operation whose output check failed.
    """

    seconds: float
    work: int
    ops: int
    failures: list[str] = field(default_factory=list)
    stolen: float = 0.0
    #: Time of each operation inside the timed region, where the workload
    #: reports a percentile of them (``serve_burst``).
    latencies: list[float] = field(default_factory=list)
    #: Mean time of the calibration kernel run just before and just after
    #: (see perf/calibrate.py); filled in by the harness.
    kernel_s: float = 0.0


def digest(*parts: Any) -> str:
    """Short stable digest of reprs / raw bytes, for cross-repetition identity."""
    h = hashlib.blake2b(digest_size=12)
    for p in parts:
        h.update(p if isinstance(p, (bytes, bytearray, memoryview)) else repr(p).encode())
    return h.hexdigest()


class Workload:
    """One set of generated inputs plus the code that runs and checks it.

    The constructor generates every input from ``seed``; the program
    under test only ever sees those inputs.  ``tiny=True`` builds the
    same shape a few hundred times smaller: it is the warm-up repetition
    of a measured run and the whole of ``--check-only``.
    """

    name = ""
    #: What ``cal_wall_s`` times and what ``cal_work_per_s`` counts, as printed.
    timed_unit = "one repetition"
    work_unit = ""
    #: CPUs a repetition keeps busy; stolen time is shared among them.
    busy_cpus = 1
    #: Compare the traced run's layer shares with the sampling profiler's.
    cross_check = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        #: Digest of each repetition's outputs; all must be equal.
        self.digests: list[str] = []

    def rep(self) -> RepOut:
        """Run one repetition and check its outputs."""
        raise NotImplementedError

    def wall_s(self, reps: Sequence[RepOut], factors: Sequence[float]) -> float:
        """The workload's ``cal_wall_s``: the median repetition.

        ``factors[i]`` turns a time measured inside repetition *i* into a
        corrected one (all ones for the raw figure).
        """
        return statistics.median(rep.seconds * f for rep, f in zip(reps, factors))

    def finish(self) -> list[str]:
        """Untimed checks after the last repetition (references, identity)."""
        if len(set(self.digests)) > 1:
            return [f"{self.name}/identical_across_repetitions: {sorted(set(self.digests))}"]
        return []

    def layer_counts(self) -> dict[str, float]:
        """Per-layer counts from the last repetition's own always-on counters."""
        return {}

    def untraced_extra(self) -> dict[str, float]:
        """Per-layer timings that must not carry tracing overhead.

        Called in a traced run after the untraced repetitions and before
        the wrappers go in.
        """
        return {}

    def traced_extra(self, tracer: Any) -> dict[str, float]:
        """Extra per-layer measurements taken once under the wrappers."""
        return {}

    def close(self) -> None:
        """Release whatever the constructor acquired."""


def run_counts(sims: Iterable[Any]) -> dict[str, float]:
    """Layer counts of the finished DES runs *sims*, summed, from their own counters.

    Each item is a ``CoupledSimulation``; everything is read through
    ``repro.obs.collect_metrics`` (the attribute counters the layers
    keep anyway), so the benchmark counts nothing itself.
    """
    from repro.obs import collect_metrics

    snaps = [collect_metrics(sim).snapshot() for sim in sims]

    def total(name: str, **labels: Any) -> float:
        return float(sum(snap.total(name, **labels) for snap in snaps))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    exports = total("export.decisions")
    buffered = total("buffer.buffered")
    data_bytes = total("net.bytes", plane="data")
    return {
        "des.events_dispatched": total("des.events.dispatched"),
        "des.heap_share": ratio(
            total("des.events.scheduled", lane="heap"), total("des.events.scheduled")
        ),
        "vmpi.bytes": total("vmpi.bytes.sent"),
        "coupler.exports": exports,
        "coupler.imports": total("import.completed"),
        "exporter.skip_ratio": ratio(total("export.decisions", outcome="skip"), exports),
        "buffers.buffered": buffered,
        "buffers.waste_ratio": ratio(total("buffer.freed_unsent"), buffered),
        "buffers.t_ub_s": total("buffer.t_ub"),
        "rep.finalized": total("rep.finalized"),
        "rep.buddy_helps_sent": total("buddy.helps_sent"),
        "match.evaluations": total("match.evaluations"),
        "wire.ctl_messages": total("net.messages", plane="ctl"),
        "wire.ctl_bytes": total("net.bytes", plane="ctl"),
        "wire.data_messages": total("net.messages", plane="data"),
        "wire.data_bytes": data_bytes,
        "wire.retransmissions": total("resilience.retransmissions"),
        "data.bytes": data_bytes,
    }
