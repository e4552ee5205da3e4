"""Unified observability: metrics registry, query tracing, exporters.

The §6 evaluation is framed entirely in observable quantities (page
accesses, CPU time, construction cost); this package is the one substrate
every layer reports them through:

* :mod:`repro.obs.metrics` — named counters, gauges, and streaming
  histograms (p50/p95/p99 without storing samples), with a no-op
  :data:`NULL_REGISTRY` for zero-overhead opt-out;
* :mod:`repro.obs.tracing` — hierarchical context-manager spans that
  meter wall time and page-access deltas into an exportable trace tree;
* :mod:`repro.obs.export` — JSON lines, Prometheus text format, and
  human-readable summary tables;
* :mod:`repro.obs.logconfig` — the CLI's one-shot stdlib logging setup.

Typical use::

    index = SignatureIndex.build(network, objects)
    with index.trace() as tracer:
        index.knn(42, 5)
    print(render_trace(tracer))
    print(metrics_summary_table(index.metrics))

Everything here is pure stdlib (zero dependencies) and cheap enough to
stay on by default; swap in :data:`NULL_REGISTRY` to disable entirely.
"""

from repro.obs.export import (
    metrics_summary_table,
    metrics_to_json_lines,
    metrics_to_prometheus,
    parse_prometheus_text,
    render_trace,
    trace_to_json_lines,
)
from repro.obs.logconfig import configure_logging
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_default_registry,
    set_default_registry,
    use_registry,
)
from repro.obs.tracing import NULL_SPAN, Span, Tracer, span_of

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_default_registry",
    "set_default_registry",
    "use_registry",
    "Span",
    "Tracer",
    "span_of",
    "NULL_SPAN",
    "metrics_to_json_lines",
    "metrics_to_prometheus",
    "metrics_summary_table",
    "parse_prometheus_text",
    "trace_to_json_lines",
    "render_trace",
    "configure_logging",
]
