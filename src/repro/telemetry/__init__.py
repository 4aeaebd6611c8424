"""Tracing, metrics, and profiling for the study pipeline.

The observability layer the scaling work measures itself with:

* :mod:`repro.telemetry.tracer` — :class:`Tracer`, a hierarchical span
  tree (wall time, per-thread CPU time, tags, parent links) with
  context-manager and decorator APIs and a thread-safe buffer, so
  parallel pipeline stages trace correctly;
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` with
  counters, gauges, and histograms backed by mergeable quantile
  sketches, pre-registered with the pipeline metrics;
* :mod:`repro.telemetry.export` — newline-delimited JSON events and
  Chrome ``chrome://tracing`` trace files;
* :mod:`repro.telemetry.profile` — the plain-text profile report (top
  stages by self time, cache hit ratios) and an ASCII trace renderer;
* :mod:`repro.telemetry.log` — :class:`StructuredLogger`, leveled
  span-correlated NDJSON log events with a zero-overhead
  :data:`NULL_LOGGER` twin;
* :mod:`repro.telemetry.hooks` — the :class:`Telemetry` facade the
  pipeline takes via ``telemetry=``, and its zero-overhead
  :data:`NULL_TELEMETRY` default.

Quickstart
----------
>>> from repro.telemetry import Telemetry
>>> tel = Telemetry()
>>> with tel.tracer.span("stage:collect", stage="collect"):
...     tel.metrics.counter("pipeline.stages_executed").inc()
1
>>> len(tel.tracer.spans())
1

Wire it into a study run with
``run_icsc_pipeline(telemetry=tel)`` (or ``repro replicate --profile``
on the CLI), then render ``profile_report(tel)`` or save a trace with
``write_chrome_trace(tel, "trace.json")``.
"""

from repro.telemetry.export import (
    chrome_trace,
    load_chrome_trace,
    span_events,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.telemetry.hooks import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    ensure,
)
from repro.telemetry.log import (
    LOG_LEVELS,
    LogEvent,
    NULL_LOGGER,
    NullLogger,
    StructuredLogger,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PIPELINE_METRICS,
)
from repro.telemetry.profile import (
    StageProfile,
    profile_report,
    render_trace,
    stage_profiles,
)
from repro.telemetry.spans import Span, SpanBuffer
from repro.telemetry.tracer import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_LEVELS",
    "LogEvent",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "NullLogger",
    "NullTelemetry",
    "NullTracer",
    "PIPELINE_METRICS",
    "Span",
    "SpanBuffer",
    "StageProfile",
    "StructuredLogger",
    "Telemetry",
    "Tracer",
    "chrome_trace",
    "ensure",
    "load_chrome_trace",
    "profile_report",
    "render_trace",
    "span_events",
    "stage_profiles",
    "write_chrome_trace",
    "write_events_jsonl",
]
