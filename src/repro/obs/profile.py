"""Sampling CPU profiler with phase attribution.

A thread-based wall-clock sampler built on ``sys._current_frames``:
every *interval* seconds a daemon thread snapshots the target thread's
stack, folds it into a collapsed-stack tally and attributes the sample
to one of the framework's known phases by module prefix — *match*
(request/object matching), *rep aggregation*, *redistribution*,
*DES dispatch* and *wire*.  No ``sys.setprofile`` hook is installed,
so the profiled run pays nothing per bytecode or call: overhead is the
sampler thread alone.  The sampler runs only when the profiled thread
hands over the GIL, so phase shares are indicative, not a time
breakdown (see ``docs/observability.md``).

A library tool, wired to no option, flag or endpoint: drive
:class:`SamplingProfiler` around any code block and read the
:class:`Profile` it returns.  Layer *times* come from boundary tracing
(``perf/run.py --trace 1``), which cross-checks itself against this
sampler's phase shares.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from types import FrameType

__all__ = ["PHASES", "Profile", "SamplingProfiler", "phase_of"]

#: ``(module prefix, phase)`` — most specific prefix first; the
#: *innermost* matching frame of a stack decides the sample's phase.
_PHASE_PREFIXES: tuple[tuple[str, str], ...] = (
    ("repro.match.aggregate", "rep_aggregation"),
    ("repro.core.rep", "rep_aggregation"),
    ("repro.match", "match"),
    ("repro.data.redistribute", "redistribution"),
    ("repro.data.schedule", "redistribution"),
    ("repro.des", "des_dispatch"),
    ("repro.core.wire", "wire"),
)

#: Every phase a sample can be attributed to.
PHASES: tuple[str, ...] = (
    "match", "rep_aggregation", "redistribution", "des_dispatch", "wire", "other",
)

#: Default sampling period (seconds): ~200 Hz, coarse enough that the
#: sampler thread never contends with the run.
DEFAULT_INTERVAL = 0.005

#: Stack depth kept per sample (frames beyond it are truncated at the
#: root — leaves are what attribution needs).
_MAX_DEPTH = 64


def phase_of(module: str) -> str | None:
    """The phase a module name belongs to, or None for non-phase code."""
    for prefix, phase in _PHASE_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return phase
    return None


def _fold(frame: FrameType) -> tuple[tuple[str, ...], str]:
    """Collapse one stack into (root..leaf frame names, phase)."""
    names: list[str] = []
    phase = "other"
    f: FrameType | None = frame
    depth = 0
    while f is not None and depth < _MAX_DEPTH:
        module = f.f_globals.get("__name__", "?")
        names.append(f"{module}.{f.f_code.co_name}")
        if phase == "other":
            found = phase_of(str(module))
            if found is not None:
                phase = found
        f = f.f_back
        depth += 1
    names.reverse()
    return tuple(names), phase


@dataclass(frozen=True)
class Profile:
    """The result of one profiling session."""

    #: Total samples taken.
    samples: int
    #: Sampling period in seconds.
    interval: float
    #: Wall-clock seconds the sampler ran.
    duration: float
    #: Collapsed stacks: ``root;...;leaf`` -> sample count.
    stacks: dict[str, int] = field(default_factory=dict)
    #: Samples per phase (every sample lands in exactly one phase).
    phases: dict[str, int] = field(default_factory=dict)

    def phase_fraction(self, phase: str) -> float:
        """Fraction of samples attributed to *phase* (0.0 when empty)."""
        return self.phases.get(phase, 0) / self.samples if self.samples else 0.0


class SamplingProfiler:
    """Samples one thread's stack on a cadence until stopped.

    Usage::

        profiler = SamplingProfiler()
        profiler.start()          # samples the *calling* thread
        ...                       # workload
        profile = profiler.stop()

    ``start``/``stop`` pair exactly once; the sampler thread is a
    daemon, so a crashed workload never hangs interpreter exit.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("profiler interval must be > 0")
        self.interval = interval
        self._target: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._stacks: dict[tuple[str, ...], int] = {}
        self._phases: dict[str, int] = {}
        self._samples = 0
        self._started_at = 0.0
        self._duration = 0.0

    def start(self, thread_id: int | None = None) -> None:
        """Begin sampling *thread_id* (default: the calling thread)."""
        if self._thread is not None:
            raise RuntimeError("profiler already started")
        self._target = thread_id if thread_id is not None else threading.get_ident()
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        assert self._target is not None
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self._target)
            if frame is None:  # target thread exited
                continue
            stack, phase = _fold(frame)
            self._stacks[stack] = self._stacks.get(stack, 0) + 1
            self._phases[phase] = self._phases.get(phase, 0) + 1
            self._samples += 1

    def stop(self) -> Profile:
        """Stop sampling and return the accumulated :class:`Profile`."""
        if self._thread is None:
            raise RuntimeError("profiler was never started")
        self._stop.set()
        self._thread.join()
        self._duration = time.perf_counter() - self._started_at
        self._thread = None
        return Profile(
            samples=self._samples,
            interval=self.interval,
            duration=self._duration,
            stacks={";".join(s): c for s, c in self._stacks.items()},
            phases=dict(self._phases),
        )
