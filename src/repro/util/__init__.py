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
