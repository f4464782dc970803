"""Observability: metrics, span tracing, and structured logs.

The paper measures a *production* system (RAPL counters sampled across
80k jobs); this subsystem gives the reproduction the same property —
the pipeline, the serving stack, and the fault injector all report into
one zero-dependency observability layer:

* :mod:`repro.obs.metrics` — a process-wide
  :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
  fixed-bucket histograms with Prometheus text exposition (scraped at
  ``GET /v1/metrics`` on the prediction server);
* :mod:`repro.obs.tracing` — :func:`~repro.obs.tracing.trace_span`
  context-manager spans emitting JSONL records to a per-run trace file
  (``repro obs summary`` renders the span tree and critical path);
* :mod:`repro.obs.logs` — structured JSON logging sharing one
  run id with the trace records.

Everything is thread-safe and costs effectively nothing when
unobserved: disarmed tracing is one global read, metrics updates are a
dict update under a per-metric lock, and log lines below the threshold
never format. The metric catalog and quickstarts live in
docs/OBSERVABILITY.md.
"""

from repro.obs.logs import (
    JsonLogger,
    configure_logging,
    get_logger,
    run_id,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SECONDS_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    peak_rss_bytes,
    render_merged,
)
from repro.obs.summary import SpanNode, TraceSummary, summarize_trace
from repro.obs.tracing import (
    TraceWriter,
    active_writer,
    configure_tracing,
    read_spans,
    trace_span,
    tracing_to,
)

__all__ = [
    "REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SECONDS_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "peak_rss_bytes",
    "render_merged",
    "TraceWriter",
    "trace_span",
    "tracing_to",
    "configure_tracing",
    "active_writer",
    "read_spans",
    "SpanNode",
    "TraceSummary",
    "summarize_trace",
    "JsonLogger",
    "get_logger",
    "configure_logging",
    "run_id",
]
