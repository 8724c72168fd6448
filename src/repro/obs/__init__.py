"""Unified observability: metrics, span timelines, and paper metrics.

Three pillars (see ``docs/observability.md``):

* :mod:`repro.obs.metrics` — labeled ``Counter``/``Gauge``/
  ``Histogram`` instruments in a :class:`MetricsRegistry`,
  frozen into :class:`MetricsSnapshot` for export.
* :mod:`repro.obs.spans` + :mod:`repro.obs.paper` — per-rank
  :class:`Timeline` objects over the trace stream, and the paper's
  Eq. 1–2 quantities (``T_ub``, buddy-help savings, slowest-process
  lag, PENDING-resolution latency) as :class:`PaperMetrics`.
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
  :class:`Aggregate` of finished sessions per scenario, with
  p50/p95/p99 quantiles (the ``aggregate`` block of
  ``repro.report/v1`` on ``GET /fleet``, ``repro_fleet_*`` on ``GET
  /metrics``), SLO rules as predicates over it (``repro watch``,
  alerts as the report's ``alerts`` block), and a thread-based
  sampling profiler with phase attribution (a library tool).

The usual entry point is the facade: ``result.metrics`` /
``result.timeline`` / ``result.causal`` on
:class:`repro.api.RunResult`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.collect import collect_metrics
    from repro.obs.export import (
        REPORT_SCHEMA,
        chrome_trace,
        validate_chrome_trace,
        validate_report_payload,
        write_chrome_trace,
    )
    from repro.obs.fleet import Aggregate
    from repro.obs.metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricSample,
        MetricsRegistry,
        MetricsSnapshot,
    )
    from repro.obs.paper import PaperMetrics, compute_paper_metrics
    from repro.obs.profile import Profile, SamplingProfiler
    from repro.obs.prov import (
        PROV_SCHEMA,
        ProvenanceError,
        ProvenanceLog,
        ProvenanceRecorder,
        read_log,
        validate_provenance_log,
    )
    from repro.obs.replay import (
        diff_causal,
        differential_replay,
        materialize,
        replay,
        verify_replay,
    )
    from repro.obs.spans import Span, SpanRecorder, Timeline, TimelineSet, build_timelines
    from repro.obs.stream import (
        ExpositionBuilder,
        JsonlSink,
        OpenMetricsSink,
        TelemetrySink,
        build_snapshot,
        escape_label_value,
        render_openmetrics,
        validate_openmetrics,
    )
    from repro.obs.trace import (
        CausalLog,
        CausalReport,
        CausalSpan,
        TraceContext,
        build_causal_report,
    )
    from repro.obs.watch import Rule, evaluate_rules, parse_rule, parse_rules

__all__ = [
    "PROV_SCHEMA",
    "REPORT_SCHEMA",
    "Aggregate",
    "CausalLog",
    "CausalReport",
    "CausalSpan",
    "Counter",
    "ExpositionBuilder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricSample",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OpenMetricsSink",
    "PaperMetrics",
    "Profile",
    "ProvenanceError",
    "ProvenanceLog",
    "ProvenanceRecorder",
    "Rule",
    "SamplingProfiler",
    "Span",
    "SpanRecorder",
    "TelemetrySink",
    "Timeline",
    "TimelineSet",
    "TraceContext",
    "build_causal_report",
    "build_snapshot",
    "build_timelines",
    "chrome_trace",
    "collect_metrics",
    "compute_paper_metrics",
    "diff_causal",
    "differential_replay",
    "escape_label_value",
    "evaluate_rules",
    "materialize",
    "parse_rule",
    "parse_rules",
    "read_log",
    "render_openmetrics",
    "replay",
    "validate_chrome_trace",
    "validate_openmetrics",
    "validate_provenance_log",
    "validate_report_payload",
    "verify_replay",
    "write_chrome_trace",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.collect": ("collect_metrics",),
        "repro.obs.export": (
            "REPORT_SCHEMA",
            "chrome_trace",
            "validate_chrome_trace",
            "validate_report_payload",
            "write_chrome_trace",
        ),
        "repro.obs.fleet": ("Aggregate",),
        "repro.obs.metrics": (
            "Counter",
            "Gauge",
            "Histogram",
            "MetricSample",
            "MetricsRegistry",
            "MetricsSnapshot",
        ),
        "repro.obs.paper": ("PaperMetrics", "compute_paper_metrics"),
        "repro.obs.profile": ("Profile", "SamplingProfiler"),
        "repro.obs.prov": (
            "PROV_SCHEMA",
            "ProvenanceError",
            "ProvenanceLog",
            "ProvenanceRecorder",
            "read_log",
            "validate_provenance_log",
        ),
        "repro.obs.replay": (
            "diff_causal",
            "differential_replay",
            "materialize",
            "replay",
            "verify_replay",
        ),
        "repro.obs.spans": (
            "Span",
            "SpanRecorder",
            "Timeline",
            "TimelineSet",
            "build_timelines",
        ),
        "repro.obs.stream": (
            "ExpositionBuilder",
            "JsonlSink",
            "OpenMetricsSink",
            "TelemetrySink",
            "build_snapshot",
            "escape_label_value",
            "render_openmetrics",
            "validate_openmetrics",
        ),
        "repro.obs.trace": (
            "CausalLog",
            "CausalReport",
            "CausalSpan",
            "TraceContext",
            "build_causal_report",
        ),
        "repro.obs.watch": ("Rule", "evaluate_rules", "parse_rule", "parse_rules"),
    },
)
