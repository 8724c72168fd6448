"""Exact Python call counts: the one harness of the path-cost guards.

Wall time cannot be asserted in a unit test; the number of calls the
interpreter makes can, as long as only the measured code is counted.
The garbage collector is off for the counted window: a collection there
would count the finalizers of earlier tests' garbage (suspended DES
processes) and any ``gc.callbacks`` (Hypothesis registers one), which
are not calls of the measured code.
"""

from __future__ import annotations

import gc
import sys
from typing import Any, Callable, Collection


def count_calls(
    fn: Callable[..., Any],
    *args: Any,
    c_calls: bool = True,
    within: Collection[Any] = (),
) -> tuple[int, Any]:
    """``(calls, fn(*args))``: the calls made while *fn* runs.

    Python calls always count, and C calls when *c_calls*.  With
    *within* (code objects), only calls made inside a frame of one of
    them count, that frame's own call included.
    """
    calls = 0
    depth = 0  # frames open inside one of *within*

    def count(frame: Any, event: str, arg: Any) -> None:
        nonlocal calls, depth
        if event == "call":
            if not within or depth or frame.f_code in within:
                calls += 1
                depth += bool(within)
        elif event == "return":
            depth -= bool(depth)
        elif event == "c_call" and c_calls and (depth or not within):
            calls += 1

    previous = sys.getprofile()
    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        value = fn(*args)
    finally:
        sys.setprofile(previous)
        if collecting:
            gc.enable()
    return calls, value
