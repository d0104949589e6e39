"""Observability substrate: metrics, spans, structured logs, exporters.

The ROADMAP's north star is an operator-scale deployment of the
paper's QoE inference loop, and such deployments live or die by
operational telemetry (Bronzino/Schmitt et al. 2019 report exactly
this from their ISP rollout).  This package is the measurement
substrate every later performance PR builds on:

``registry``
    Process-wide, dependency-free, thread-safe metrics registry —
    labelled counters, gauges and histograms with bucket-interpolated
    quantile estimation.
``tracing``
    Span tracer: ``with trace("capture.reconstruct"): ...`` produces
    nested timing trees with per-span counters; ``@traced`` wraps
    functions.  Span names follow the ``layer.operation`` convention.
``logs``
    Structured key=value event logging on top of stdlib ``logging``.
``exposition``
    Prometheus text-exposition rendering of a registry.  (Named
    *exposition*, not *prometheus*, to avoid shadowing the
    :mod:`repro.baselines.prometheus` baseline classifier.)
``snapshot``
    JSON snapshot writer (metrics + span trees) for benchmark runs.
``httpd``
    Live ``/metrics`` + ``/health`` endpoint (stdlib ``http.server``
    thread) for long-running serving processes (CLI ``--metrics-port``).
``pipeline``
    Per-record trace propagation through the serving pipeline: staged
    latency histograms, end-to-end latency, sampled exemplar traces.
``slo``
    Declarative SLOs (``p99:e2e<=250ms@60s``, ``success>=99.9%``)
    evaluated over tumbling windows with error-budget burn rates.
``recorder``
    Chaos flight recorder: bounded event ring + JSON postmortems on
    circuit opens, shard deaths and drain timeouts.

Instrumentation is pull-based and passive: modules record into the
default registry/tracer unconditionally; cost without an attached
exporter is a dict lookup and a lock-guarded float add per event, so
hot paths stay within a few percent of their uninstrumented speed.
"""

from .exposition import render_prometheus
from .httpd import MetricsServer, start_metrics_server
from .logs import configure_logging, get_logger
from .pipeline import (
    LATENCY_BUCKETS,
    STAGES,
    PipelineTelemetry,
    ShardTelemetry,
    TraceContext,
)
from .recorder import (
    POSTMORTEM_SCHEMA,
    FlightRecorder,
    get_recorder,
    set_recorder,
)
from .registry import (
    Counter,
    Gauge,
    Histogram,
    HistogramWindow,
    MetricsRegistry,
    estimate_quantile,
    get_registry,
    registry_state_delta,
    set_registry,
)
from .slo import DEFAULT_SLOS, SLO, SLOEngine, parse_slo
from .snapshot import registry_snapshot, write_snapshot
from .tracing import SpanNode, Tracer, current_span, get_tracer, trace, traced

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramWindow",
    "MetricsRegistry",
    "estimate_quantile",
    "get_registry",
    "registry_state_delta",
    "set_registry",
    "render_prometheus",
    "MetricsServer",
    "start_metrics_server",
    "configure_logging",
    "get_logger",
    "registry_snapshot",
    "write_snapshot",
    "SpanNode",
    "Tracer",
    "current_span",
    "get_tracer",
    "trace",
    "traced",
    "STAGES",
    "LATENCY_BUCKETS",
    "TraceContext",
    "PipelineTelemetry",
    "ShardTelemetry",
    "SLO",
    "SLOEngine",
    "parse_slo",
    "DEFAULT_SLOS",
    "POSTMORTEM_SCHEMA",
    "FlightRecorder",
    "get_recorder",
    "set_recorder",
]
