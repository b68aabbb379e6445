"""Observability for the characterisation → optimisation pipeline.

``repro.obs`` is a zero-dependency telemetry layer with three legs:

* **trace spans** (:mod:`repro.obs.trace`) — hierarchical, monotonic
  timings with structured attributes, exportable as a JSONL sidecar and
  as Chrome ``trace_event`` JSON;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  histograms with deterministic snapshot/export;
* **profiling** (:mod:`repro.obs.profile`) — per-stage wall/CPU time
  and peak RSS.

Every name the library can emit is declared in the closed-world
catalogue (:mod:`repro.obs.spec`), from which the reference tables in
``docs/observability.md`` are generated and drift-tested.

Telemetry is **off by default** and the disabled path is a shared no-op
(:mod:`repro.obs.runtime`), so instrumented pipelines remain
bit-identical and effectively free when nobody is watching.  Enable via
``repro-flow --trace/--metrics``, the ``REPRO_TRACE``/``REPRO_METRICS``
environment variables, or programmatically::

    from repro import obs

    with obs.observability() as observer:
        framework.characterize(...)
    observer.tracer.export_chrome("run.json")
    observer.metrics.snapshot().write("metrics.json")
"""

from typing import Any

from .._lazy import load_export

_EXPORTS = (
    (".metrics", (
        "DEFAULT_BOUNDARIES",
        "METRICS_SCHEMA_VERSION",
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "MetricsSnapshot",
        "load_metrics_snapshot",
    )),
    (".profile", ("peak_rss_bytes", "stage_profiler")),
    (".runtime", (
        "REPRO_METRICS_ENV",
        "REPRO_TRACE_ENV",
        "Observer",
        "counter_add",
        "default_metrics_path",
        "disable_observability",
        "enable_observability",
        "export_trace_files",
        "gauge_set",
        "get_observer",
        "metrics_enabled",
        "observability",
        "observe",
        "profile_stage",
        "set_observer",
        "snapshot_metrics",
        "span",
        "trace_enabled",
        "tracing_paths_from_env",
    )),
    (".spec", (
        "COUNTER",
        "GAUGE",
        "HISTOGRAM",
        "METRIC_CATALOG",
        "SPAN_CATALOG",
        "MetricSpec",
        "SpanSpec",
        "metric_spec",
        "metrics_table_markdown",
        "span_spec",
        "spans_table_markdown",
        "telemetry_reference_markdown",
    )),
    (".trace", (
        "TRACE_SCHEMA_VERSION",
        "Span",
        "SpanRecord",
        "Tracer",
        "chrome_trace_from_records",
        "load_trace_jsonl",
        "summarize_spans",
    )),
)

__all__ = [
    "COUNTER",
    "DEFAULT_BOUNDARIES",
    "GAUGE",
    "HISTOGRAM",
    "METRICS_SCHEMA_VERSION",
    "METRIC_CATALOG",
    "REPRO_METRICS_ENV",
    "REPRO_TRACE_ENV",
    "SPAN_CATALOG",
    "TRACE_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricSpec",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observer",
    "Span",
    "SpanRecord",
    "SpanSpec",
    "Tracer",
    "chrome_trace_from_records",
    "counter_add",
    "default_metrics_path",
    "disable_observability",
    "enable_observability",
    "export_trace_files",
    "gauge_set",
    "get_observer",
    "load_metrics_snapshot",
    "load_trace_jsonl",
    "metric_spec",
    "metrics_enabled",
    "metrics_table_markdown",
    "observability",
    "observe",
    "peak_rss_bytes",
    "profile_stage",
    "set_observer",
    "snapshot_metrics",
    "span",
    "span_spec",
    "spans_table_markdown",
    "stage_profiler",
    "summarize_spans",
    "telemetry_reference_markdown",
    "trace_enabled",
    "tracing_paths_from_env",
]


def __getattr__(name: str) -> Any:
    return load_export(__name__, _EXPORTS, name)
