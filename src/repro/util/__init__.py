"""Shared utilities for the :mod:`repro` framework.

This package holds small, dependency-free helpers used throughout the
framework:

* :mod:`repro.util.validation` -- argument checking helpers that raise
  uniform, descriptive errors.
* :mod:`repro.util.stats` -- online statistics (Welford), series
  summaries used by the benchmark harness.
* :mod:`repro.util.tracing` -- structured event tracing used to
  regenerate the paper's Figure 5/7/8 event traces.
* :mod:`repro.util.rng` -- named, reproducible random-number streams.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.util.render import heatmap
    from repro.util.rng import RngRegistry
    from repro.util.stats import OnlineStats, SeriesSummary
    from repro.util.tracing import NullTracer, TraceEvent, Tracer, format_trace
    from repro.util.validation import (
        require,
        require_non_negative,
        require_positive,
        require_type,
    )

__all__ = [
    "require",
    "require_type",
    "require_positive",
    "require_non_negative",
    "OnlineStats",
    "SeriesSummary",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "format_trace",
    "RngRegistry",
    "heatmap",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.util.render": ("heatmap",),
        "repro.util.rng": ("RngRegistry",),
        "repro.util.stats": ("OnlineStats", "SeriesSummary"),
        "repro.util.tracing": ("NullTracer", "TraceEvent", "Tracer", "format_trace"),
        "repro.util.validation": (
            "require",
            "require_non_negative",
            "require_positive",
            "require_type",
        ),
    },
)
