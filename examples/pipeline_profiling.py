#!/usr/bin/env python3
"""Profiling with :mod:`repro.telemetry`: tracer, metrics, and reports.

Three demonstrations, each usable on its own:

1. the :class:`~repro.telemetry.Tracer` standalone — nested spans via
   the context manager and the ``@traced`` decorator, then the recorded
   tree printed with parent links and wall/CPU split;
2. the :class:`~repro.telemetry.MetricsRegistry` standalone — a counter
   and a histogram whose percentiles come from a mergeable quantile
   sketch;
3. the full study pipeline run under a :class:`~repro.telemetry.Telemetry`
   context: the plain-text profile report (top stages by self time,
   cache hit ratios) plus a Chrome trace written to
   ``output/profiling-trace.json`` — open it in ``chrome://tracing``
   or https://ui.perfetto.dev, or render it in the terminal with
   ``repro trace output/profiling-trace.json``.

Run with::

    python examples/pipeline_profiling.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.pipeline import ArtifactCache
from repro.pipeline.study import run_icsc_pipeline
from repro.telemetry import (
    MetricsRegistry,
    Telemetry,
    Tracer,
    profile_report,
    write_chrome_trace,
)


def demo_tracer() -> None:
    """Spans nest; each records wall time, CPU time, and free-form tags."""
    print("== Tracer: a hierarchical span tree ==")
    tracer = Tracer()

    @tracer.traced("screen", phase="selection")
    def screen(papers: int) -> int:
        time.sleep(0.01)
        return papers // 2

    with tracer.span("mapping-study", venue="ICSC"):
        with tracer.span("search", engine="scopus"):
            time.sleep(0.005)
        kept = screen(148)

    by_id = {s.span_id: s for s in tracer.spans()}
    for span in sorted(tracer.spans(), key=lambda s: s.start):
        parent = by_id[span.parent_id].name if span.parent_id else "-"
        print(f"  {span.name:<15} parent={parent:<15} "
              f"wall={span.duration * 1e3:6.2f} ms  "
              f"cpu={span.cpu_time * 1e3:6.2f} ms  tags={dict(span.tags)}")
    print(f"  kept {kept} papers after screening\n")


def demo_metrics() -> None:
    """A counter and histogram percentiles."""
    print("== MetricsRegistry: counters, histograms ==")
    registry = MetricsRegistry()
    accepted = registry.counter("papers.accepted")
    latency = registry.histogram("screening.seconds")

    for i in range(40):
        accepted.inc()
        latency.observe(0.004 * (i % 7 + 1))

    summary = latency.summary()
    print(f"  papers accepted:        {accepted.value}")
    print(f"  screening latency p50:  {summary['p50'] * 1e3:.1f} ms   "
          f"p99: {summary['p99'] * 1e3:.1f} ms")
    print(f"  sketch buckets in use:  {len(summary['sketch']['pos'])}\n")


def demo_pipeline_profile() -> None:
    """Profile a real study replication and export its Chrome trace."""
    print("== Profiling the ICSC study pipeline ==")
    cache = ArtifactCache(Path("output/profiling-cache"))
    cache.clear()

    telemetry = Telemetry()
    results, run = run_icsc_pipeline(cache=cache, telemetry=telemetry)
    print(profile_report(telemetry, cache_stats=cache.stats()))

    trace_path = Path("output/profiling-trace.json")
    write_chrome_trace(telemetry, trace_path)
    print(f"\nChrome trace written to {trace_path}")
    print("  open it in chrome://tracing or https://ui.perfetto.dev,")
    print(f"  or render it inline:  repro trace {trace_path}")
    print(f"  ({len(run.executed)} stages executed, "
          f"top direction: {results.q3.top_direction})")


def main() -> None:
    demo_tracer()
    demo_metrics()
    demo_pipeline_profile()


if __name__ == "__main__":
    main()
