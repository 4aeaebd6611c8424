"""Telemetry benchmark: the no-op path must be free, the real path cheap.

Telemetry is wired inline into ``Pipeline.run``'s hot path, so the
disabled default has to cost (approximately) nothing.  Two guards:

* **no-op overhead** — the exact null-telemetry call sequence a warm
  `Pipeline.run` performs (one run span, four cached-stage spans, the
  counter/histogram touches) is timed directly and must account
  for < 5% of a measured warm-cache run — i.e. the PR-1 warm path is
  preserved within noise;
* **enabled capture** — recording telemetry on a warm run must still
  produce the full span/metric picture, and its cost is reported for
  the record.

The measured numbers land in ``output/BENCH_telemetry.json`` alongside
the ``report()`` block the other benchmarks print.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import report

from repro.pipeline import ArtifactCache
from repro.pipeline.study import run_icsc_pipeline
from repro.telemetry import NULL_TELEMETRY, Telemetry

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_SUMMARY = REPO_ROOT / "output" / "BENCH_telemetry.json"

#: The study DAG's stage names (what a warm run touches).
STAGES = ("collect", "classify", "survey", "analyze")


def _timed(fn, repeats: int) -> float:
    """Best-of-*repeats* wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _null_instrumentation_once() -> None:
    """Replay the telemetry calls one warm `Pipeline.run` makes, on the
    shared no-op objects — the exact per-run cost of `telemetry=None`."""
    tel = NULL_TELEMETRY
    if tel.enabled:  # the bind-collaborators guard
        raise AssertionError
    metrics = tel.metrics
    metrics.histogram("pipeline.stage_seconds")
    metrics.counter("pipeline.stages_executed")
    cached = metrics.counter("pipeline.stages_cached")
    log = tel.log  # the structured-logger lookup the runner performs
    with tel.tracer.span("pipeline.run", pipeline="icsc-study"):
        for name in STAGES:
            if tel.enabled:  # cached-stage spans are gated off entirely
                cached.inc()
        # pipeline.plan / pipeline.finish log events are enabled-gated.
        for _ in range(2):
            if tel.enabled:
                log.info("pipeline.plan")


def test_bench_telemetry_noop_overhead(benchmark, tmp_path):
    """Disabled telemetry must add < 5% to a warm-cache study run."""
    cache = ArtifactCache(tmp_path / "warm")
    run_icsc_pipeline(cache=cache)  # prime

    warm = _timed(lambda: run_icsc_pipeline(cache=cache), repeats=20)
    _, run = benchmark(lambda: run_icsc_pipeline(cache=cache))
    assert run.executed == ()  # genuinely warm

    # Direct measurement of the no-op instrumentation a warm run pays.
    # Best-of-chunks, like the warm timing, so scheduler noise cannot
    # inflate the numerator while deflating the denominator.
    chunk = 200
    noop_per_run = _timed(
        lambda: [_null_instrumentation_once() for _ in range(chunk)],
        repeats=10,
    ) / chunk

    overhead = noop_per_run / warm
    report(
        "Telemetry — no-op overhead on a warm-cache run",
        [
            f"warm run (best of 20):     {warm * 1e3:9.4f} ms",
            f"no-op telemetry calls:     {noop_per_run * 1e6:9.3f} µs/run",
            f"overhead:                  {overhead * 100:9.3f} %  (< 5% required)",
        ],
    )
    assert overhead < 0.05, (
        f"no-op telemetry costs {overhead * 100:.2f}% of a warm run (>= 5%)"
    )

    BENCH_SUMMARY.parent.mkdir(parents=True, exist_ok=True)
    BENCH_SUMMARY.write_text(
        json.dumps(
            {
                "benchmark": "telemetry_noop_overhead",
                "warm_run_ms": round(warm * 1e3, 4),
                "noop_telemetry_us_per_run": round(noop_per_run * 1e6, 3),
                "overhead_fraction": round(overhead, 6),
                "threshold_fraction": 0.05,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )


def test_bench_telemetry_enabled_capture(benchmark, tmp_path):
    """Enabled telemetry records the full picture on a warm run."""
    cache = ArtifactCache(tmp_path / "warm")
    run_icsc_pipeline(cache=cache)  # prime

    plain = _timed(lambda: run_icsc_pipeline(cache=cache), repeats=10)

    def traced_run():
        tel = Telemetry()
        _, run = run_icsc_pipeline(cache=cache, telemetry=tel)
        return tel, run

    traced = _timed(traced_run, repeats=10)
    tel, run = benchmark(traced_run)

    assert run.executed == ()
    spans = tel.tracer.spans()
    assert {s.name for s in spans} == {
        "pipeline.run", *(f"stage:{name}" for name in STAGES)
    }
    snapshot = tel.metrics.snapshot()
    assert snapshot["pipeline.stages_cached"]["value"] == len(STAGES)
    assert snapshot["pipeline.stages_executed"]["value"] == 0

    report(
        "Telemetry — enabled capture on a warm-cache run",
        [
            f"warm, telemetry off:  {plain * 1e3:9.4f} ms",
            f"warm, telemetry on:   {traced * 1e3:9.4f} ms "
            f"({len(spans)} spans, {len(snapshot)} metrics)",
        ],
    )
