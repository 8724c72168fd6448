"""Unified observability: metrics, span timelines, and paper metrics.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — labeled ``Counter``/``Gauge``/
  ``Histogram`` instruments in a
  :class:`~repro.obs.metrics.MetricsRegistry`, frozen into
  :class:`~repro.obs.metrics.MetricsSnapshot` for export.
* :mod:`repro.obs.spans` + :mod:`repro.obs.paper` — per-rank
  :class:`~repro.obs.spans.Timeline` objects over the trace stream, and
  the paper's Eq. 1–2 quantities (``T_ub``, buddy-help savings,
  slowest-process lag, PENDING-resolution latency) as
  :class:`~repro.obs.paper.PaperMetrics`.
* :mod:`repro.obs.collect` + :mod:`repro.obs.export` — post-run
  collection into a registry, Chrome ``trace_event`` JSON, and the
  ``repro.report/v1`` payload validators.
* :mod:`repro.obs.trace` + :mod:`repro.obs.stream` — causal
  (happens-before) tracing of every control-plane message with
  critical-path stage attribution per import, and opt-in streaming
  telemetry sinks (JSONL, OpenMetrics) for live monitoring.
* :mod:`repro.obs.prov` + :mod:`repro.obs.replay` — provenance-grade
  run recording (``repro.prov/v2`` append-only logs, opt-in via
  ``RunOptions.provenance``), bit-exact replay from the log alone,
  time-travel queries over buffer ledgers and PENDING frontiers, and
  differential replay diffing two causal DAGs.
* :mod:`repro.obs.fleet` + :mod:`repro.obs.watch` +
  :mod:`repro.obs.profile` — fleet observability: one table-driven
  :class:`~repro.obs.fleet.Aggregate` of finished sessions per
  scenario, with p50/p95/p99 quantiles (the ``aggregate`` block of
  ``repro.report/v1`` on ``GET /fleet``, ``repro_fleet_*`` on ``GET
  /metrics``), SLO rules as predicates over it (``repro watch``,
  alerts as the report's ``alerts`` block), and a thread-based
  sampling profiler with phase attribution (a library tool).

The usual entry point is the facade: ``result.metrics`` /
``result.timeline`` / ``result.causal`` on
:class:`repro.RunResult`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.collect import collect_metrics
    from repro.obs.export import REPORT_SCHEMA, validate_chrome_trace, validate_report_payload
    from repro.obs.profile import SamplingProfiler
    from repro.obs.prov import read_log, validate_provenance_log
    from repro.obs.replay import verify_replay
    from repro.obs.stream import JsonlSink, OpenMetricsSink, validate_openmetrics

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.collect": ("collect_metrics",),
        "repro.obs.export": (
            "REPORT_SCHEMA",
            "validate_chrome_trace",
            "validate_report_payload",
        ),
        "repro.obs.profile": ("SamplingProfiler",),
        "repro.obs.prov": ("read_log", "validate_provenance_log"),
        "repro.obs.replay": ("verify_replay",),
        "repro.obs.stream": ("JsonlSink", "OpenMetricsSink", "validate_openmetrics"),
    },
)
