"""Factoring the host out of a timing: stolen time, and a fixed kernel timed beside it.

The sandbox this benchmark runs in is a shared virtual machine whose
speed changes by tens of percent over tens of seconds.  Sixty identical,
back-to-back Figure-4 repetitions took between 1.06 s and 1.80 s, in CPU
time as in wall time; over fifteen minutes the median of six consecutive
repetitions had an interquartile spread of 27%.  No repetition count
inside a ten-second run averages that away, so two corrections are made
to every timed repetition (and to every set-up time):

* **Stolen time is subtracted.**  ``/proc/stat`` counts the time the
  hypervisor ran other guests while this one had work to do.  One
  repetition that read 2.32 s on the wall clock had 0.84 s of it stolen
  and used 1.64 s of CPU, like its neighbours.  The counter is read at
  both ends of the timed region only (``workloads.base.Timed``), so what
  is stolen during an output check is not charged to the timing.  A
  workload that keeps *n* CPUs busy is charged 1/*n* of the machine-wide
  figure.

* **The rest is scaled by a kernel.**  Every repetition is bracketed by
  two runs of :func:`kernel_seconds`, fixed work that takes
  :data:`NOMINAL_S` on the host the baseline was recorded on, and is
  reported as ``seconds * NOMINAL_S / mean(kernel runs)``: seconds on a
  host that runs the kernel in exactly ``NOMINAL_S``.  Half the kernel is
  interpreter work (dict stores, float arithmetic, a loop), half a NumPy
  stencil over arrays that do not fit in L2, because the workloads are a
  mix of both.  On the ten-run sets in ``perf/baseline/``, which keep
  the figures as measured beside the corrected ones, the spread of a
  workload's time falls from 5-33% to 3-16%.  It under-corrects,
  because object-heavy Python loses more to a busy neighbour (about
  +60%) than the kernel does (about +35%).  Kernels built to be more
  like it (pointer chasing over 150k objects, heap and dict allocation,
  generator resumption) tracked worse, not better.

This file is part of the measuring instrument: changing it changes every
calibrated number, so it changes only together with a new baseline.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: What one kernel run takes on the host the baseline was recorded on.
NOMINAL_S = 0.2

_FIELD = np.random.default_rng(0).random((514, 514))
_OUT = np.empty((512, 512))


def stolen_seconds() -> float:
    """Seconds the hypervisor has taken from this machine since boot (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / 100.0  # USER_HZ ticks; cpu user nice system idle iowait irq softirq steal
    except (OSError, IndexError, ValueError):
        return 0.0


def unstolen(seconds: float, stolen: float, busy_cpus: int = 1) -> float:
    """*seconds* of wall time less its share of *stolen*; never below half."""
    return max(seconds - stolen / busy_cpus, seconds / 2)


def scaled(seconds: float, kernel_s: float) -> float:
    """*seconds* on a host that runs the kernel in exactly :data:`NOMINAL_S`."""
    return seconds * NOMINAL_S / kernel_s


def _interpreter_part(n: int = 700_000) -> float:
    slots: dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        slots[i & 1023] = acc
        acc += (i * 0.5) % 7.0
    return acc


def _numpy_part(sweeps: int = 30) -> np.ndarray:
    f, out = _FIELD, _OUT
    inner = f[1:-1, 1:-1]
    for _ in range(sweeps):
        np.add(f[:-2, 1:-1], f[2:, 1:-1], out=out)
        out += f[1:-1, :-2]
        out += f[1:-1, 2:]
        out -= 4 * inner
        step = 2.0 * out - inner + 0.25 * out
    return step


def kernel_seconds() -> float:
    """Time one run of the kernel, less what was stolen during it."""
    stolen = stolen_seconds()
    t0 = perf_counter()
    _interpreter_part()
    _numpy_part()
    seconds = perf_counter() - t0
    return unstolen(seconds, stolen_seconds() - stolen)
