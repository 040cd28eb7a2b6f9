"""Self-monitoring for the monitoring framework.

DCDB's paper evaluates DCDB's own footprint and latency; this package
is the measurement surface that makes such claims reproducible here:
a thread-safe :class:`MetricsRegistry` threaded through every pipeline
stage, per-reading pipeline tracing (:class:`PipelineTracer`) with
wire-propagated trace IDs and span trees (:class:`SpanRecorder`),
runtime probes (:class:`EventLoopLagProbe`), structured JSON logging,
and Prometheus/JSON exposition behind the shared ``/metrics``,
``/traces`` and ``/health`` REST routes.  See
``docs/observability.md`` for the instrument catalogue.
"""

from repro.observability.exposition import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_text,
    render_health,
    render_json,
    render_prometheus,
)
from repro.observability.logging import (
    JsonFormatter,
    component_logger,
    configure_json_logging,
)
from repro.observability.metrics import (
    Counter,
    FamilySnapshot,
    Gauge,
    Histogram,
    HistogramSample,
    MetricsRegistry,
    Sample,
    merge_snapshots,
)
from repro.observability.runtime import (
    EVENTLOOP_LAG_METRIC,
    EventLoopLagProbe,
)
from repro.observability.spans import (
    Span,
    SpanRecorder,
    current_trace,
    default_recorder,
    new_trace_id,
    trace_context,
)
from repro.observability.tracing import (
    HOPS,
    LATENCY_BUCKETS,
    PIPELINE_METRIC,
    PipelineTracer,
)

__all__ = [
    "Counter",
    "EVENTLOOP_LAG_METRIC",
    "EventLoopLagProbe",
    "FamilySnapshot",
    "Gauge",
    "HOPS",
    "Histogram",
    "HistogramSample",
    "JsonFormatter",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "PIPELINE_METRIC",
    "PROMETHEUS_CONTENT_TYPE",
    "PipelineTracer",
    "Sample",
    "Span",
    "SpanRecorder",
    "component_logger",
    "configure_json_logging",
    "current_trace",
    "default_recorder",
    "merge_snapshots",
    "new_trace_id",
    "parse_prometheus_text",
    "render_health",
    "render_json",
    "render_prometheus",
    "trace_context",
]
