"""Observability: metrics, tracing spans, structured logs, timing.

This package is the single entry point for everything the system reports
about itself:

- :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket histograms with Prometheus text
  exposition (served by ``GET /metrics`` on the HTTP service);
- :mod:`repro.obs.tracing` — nested :func:`trace_span` context managers
  carrying strategy names, space sizes (|IS|, |GS|, |AS|) and candidate
  counts, exportable as a JSON span tree;
- :mod:`repro.obs.logs` — structured JSON logging with a process run-id
  and per-request ids;
- :mod:`repro.obs.profiling` — the :data:`STAGES` a served request passes
  through and the :class:`StageProfiler` per-stage latency breakdown
  (p50/p95/p99 from each request's stage marks), the
  :class:`SlowRequestLog` behind ``GET /debug/slow``, and guarded on-demand
  :class:`ProfileSession` cProfile captures;
- :mod:`repro.obs.quality` — online recommendation-quality accounting:
  per-strategy score/empty/OOV rates, PSI drift detection against a
  baseline frozen per model generation, and SLO burn-rate gauges (served
  by ``GET /debug/quality``; see ``docs/quality.md``);
- :mod:`repro.obs.export` — the durable tail: a sampled, size-capped,
  rotating JSONL flight recorder for span trees and quality events
  (``repro telemetry report`` replays it);
- :mod:`repro.obs.runtime` — the :func:`enable`/:func:`disable` switches.
  Every subsystem starts **off**; disabled instrumentation costs one boolean
  check per site, so benchmarks of the uninstrumented paths stay honest.
- :class:`~repro.utils.timing.Stopwatch` (re-exported) — the thread-safe
  sample accumulator the Figure 7 scalability experiments use.

Quickstart::

    from repro import obs

    obs.enable(metrics=True, tracing=True)
    recommender.recommend(activity, k=10)
    print(obs.get_registry().render())        # Prometheus text
    print(obs.get_tracer().export_json())     # span tree with |IS|/|GS|/|AS|

Metric naming follows Prometheus conventions (``repro_`` prefix, base
units, ``_total``/``_seconds`` suffixes); ``docs/observability.md`` lists
every metric and span attribute.
"""

from repro.obs.export import (
    FlightRecorder,
    RotatingFileWriter,
    iter_telemetry_records,
)
from repro.obs.history import (
    DEFAULT_INTERVAL_SECONDS,
    DEFAULT_WINDOW_SECONDS,
    MetricsHistory,
    histogram_quantile,
)
from repro.obs.logs import (
    RUN_ID,
    JsonLogFormatter,
    TextLogFormatter,
    configure_logging,
    current_request_id,
    get_logger,
    log_event,
    new_request_id,
    request_context,
)
from repro.obs.metrics import (
    CACHE_LOOKUP_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Exemplar,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profiling import (
    STAGES,
    ProfileSession,
    SlowRequestLog,
    StageProfiler,
    get_profiler,
    set_profiler,
)
from repro.obs.quality import (
    BaselineProfile,
    DriftDetector,
    QualityMonitor,
    SLOTracker,
    get_quality_monitor,
    population_stability_index,
    set_quality_monitor,
)
from repro.obs.runtime import (
    disable,
    enable,
    exemplars_enabled,
    is_enabled,
    metrics_enabled,
    quality_enabled,
    trace_detail_enabled,
    tracing_enabled,
)
from repro.obs.tracecontext import (
    TraceContext,
    current_trace_id,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    trace_context,
)
from repro.obs.tracing import (
    NOOP_SPAN,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    trace_span,
)
from repro.utils.timing import Stopwatch, TimingSummary, timed

__all__ = [
    # runtime switches
    "enable",
    "disable",
    "is_enabled",
    "metrics_enabled",
    "tracing_enabled",
    "exemplars_enabled",
    "trace_detail_enabled",
    "quality_enabled",
    # metrics
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Exemplar",
    "DEFAULT_LATENCY_BUCKETS",
    "CACHE_LOOKUP_BUCKETS",
    "get_registry",
    "set_registry",
    # profiling
    "STAGES",
    "StageProfiler",
    "SlowRequestLog",
    "ProfileSession",
    "get_profiler",
    "set_profiler",
    # tracing
    "Span",
    "Tracer",
    "trace_span",
    "get_tracer",
    "set_tracer",
    "NOOP_SPAN",
    # W3C trace-context propagation
    "TraceContext",
    "parse_traceparent",
    "format_traceparent",
    "new_trace_id",
    "new_span_id",
    "current_trace_id",
    "trace_context",
    # metrics history (time-series ring buffers behind /debug/history)
    "MetricsHistory",
    "histogram_quantile",
    "DEFAULT_INTERVAL_SECONDS",
    "DEFAULT_WINDOW_SECONDS",
    # recommendation quality + drift + SLOs
    "QualityMonitor",
    "DriftDetector",
    "BaselineProfile",
    "SLOTracker",
    "population_stability_index",
    "get_quality_monitor",
    "set_quality_monitor",
    # durable telemetry export
    "FlightRecorder",
    "RotatingFileWriter",
    "iter_telemetry_records",
    # structured logs
    "configure_logging",
    "get_logger",
    "log_event",
    "request_context",
    "current_request_id",
    "new_request_id",
    "JsonLogFormatter",
    "TextLogFormatter",
    "RUN_ID",
    # timing (re-exported for one observability entry point)
    "Stopwatch",
    "TimingSummary",
    "timed",
]
