"""End-to-end and per-layer benchmark of the ``repro`` package.

Everything here measures the system from outside, through its public
entry points; nothing under ``src/`` imports this package.  See
``perf/README.md`` for the one command, the workloads and the metrics.
"""
