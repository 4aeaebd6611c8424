"""Unit tests for :mod:`repro.telemetry`: tracer, metrics, exporters,
profile report, and the pipeline/cache instrumentation hooks."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.errors import StageExecutionError, StatsError, TelemetryError
from repro.pipeline import ArtifactCache, Pipeline, Stage
from repro.stats.sketch import QuantileSketch
from repro.telemetry import (
    LOG_LEVELS,
    NULL_LOGGER,
    NULL_TELEMETRY,
    MetricsRegistry,
    NullLogger,
    NullTelemetry,
    StructuredLogger,
    Telemetry,
    Tracer,
    chrome_trace,
    ensure,
    load_chrome_trace,
    profile_report,
    render_trace,
    span_events,
    stage_profiles,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.telemetry.tracer import NULL_TRACER


class TestTracer:
    def test_nesting_links_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Finish order: inner closes first.
        assert [s.name for s in tracer.spans()] == ["inner", "outer"]

    def test_span_records_wall_and_cpu(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            sum(range(20_000))
        assert span.duration is not None and span.duration >= 0.0
        assert span.cpu_time is not None and span.cpu_time >= 0.0
        assert span.end == pytest.approx(span.start + span.duration)

    def test_tags_seeded_and_mutable(self):
        tracer = Tracer()
        with tracer.span("s", stage="collect") as span:
            span.tags["outcome"] = "executed"
        recorded = tracer.spans()[0]
        assert recorded.tags == {"stage": "collect", "outcome": "executed"}

    def test_exception_tags_error_and_propagates(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("kaput")
        span = tracer.spans()[0]
        assert span.duration is not None
        assert "ValueError" in span.tags["error"]

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        with tracer.span("run") as run_span:
            def work():
                with tracer.span("stage", parent=run_span):
                    pass
            thread = threading.Thread(target=work)
            thread.start()
            thread.join()
        stage_span = tracer.spans()[0]
        assert stage_span.parent_id == run_span.span_id
        assert stage_span.thread_id != run_span.thread_id

    def test_parallel_tracing_loses_no_spans(self):
        tracer = Tracer()
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            for j in range(25):
                with tracer.span(f"w{i}.{j}"):
                    pass

        threads = [
            threading.Thread(target=work, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer.spans()) == 100

    def test_decorator(self):
        tracer = Tracer()

        @tracer.traced(kind="helper")
        def work(n):
            return n * 2

        assert work(21) == 42
        span = tracer.spans()[0]
        assert span.name == "work"
        assert span.tags == {"kind": "helper"}

    def test_clear_resets(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.spans() == ()


class TestNullTracer:
    def test_span_is_shared_and_inert(self):
        ctx1 = NULL_TRACER.span("a", x=1)
        ctx2 = NULL_TRACER.span("b")
        assert ctx1 is ctx2  # no per-call allocation
        with ctx1 as span:
            span.tags["ignored"] = True  # write-only sink
        assert NULL_TRACER.spans() == ()
        assert not NULL_TRACER.enabled

    def test_decorator_returns_function_unchanged(self):
        def fn():
            return 1

        assert NULL_TRACER.traced()(fn) is fn

    def test_exceptions_propagate(self):
        with pytest.raises(RuntimeError):
            with NULL_TRACER.span("x"):
                raise RuntimeError("through")


class TestMetrics:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("items")
        assert counter.inc() == 1
        assert counter.inc(4) == 5
        assert registry.counter("items") is counter  # get-or-create
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_histogram_buckets_and_percentiles(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (0.005, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == pytest.approx(5.555)
        summary = histogram.summary()
        sketch = QuantileSketch.from_dict(summary["sketch"])
        assert sketch.count == 4
        alpha = sketch.alpha
        assert sketch.quantile(0.0) == pytest.approx(0.005, rel=alpha)
        assert sketch.quantile(1.0) == pytest.approx(5.0, rel=alpha)
        assert summary["max"] == 5.0
        # Rank floor(q * (n - 1)): p50 is the 2nd of 4 values, p99 the 3rd.
        assert summary["p50"] == pytest.approx(0.05, rel=alpha)
        assert summary["p99"] == pytest.approx(0.5, rel=alpha)

    def test_histogram_rejects_bad_bounds_and_empty_percentile(self):
        registry = MetricsRegistry()
        # Bucket bounds are no longer a knob: the sketch needs none.
        with pytest.raises(TypeError):
            registry.histogram("bad", bounds=(1.0, 0.5))
        empty = registry.histogram("empty").summary()
        assert empty["count"] == 0
        assert empty["mean"] == 0.0
        assert not {"p50", "p90", "p99"} & set(empty)

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TelemetryError):
            registry.histogram("x")

    def test_snapshot_and_pipeline_preregistration(self):
        registry = MetricsRegistry.for_pipeline()
        assert "cache.hits" in registry.names()
        registry.counter("cache.hits").inc(3)
        registry.histogram("pipeline.stage_seconds").observe(0.2)
        snapshot = registry.snapshot()
        assert snapshot["cache.hits"] == {"kind": "counter", "value": 3}
        stage = snapshot["pipeline.stage_seconds"]
        assert stage["count"] == 1
        # The sketch answers within its documented relative error.
        assert stage["p50"] == pytest.approx(0.2, rel=stage["sketch"]["alpha"])

    def test_thread_safety_under_contention(self):
        counter = MetricsRegistry().counter("n")
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestLatencyBuckets:
    """The sketch's log buckets keep the serve layer's latency
    histograms honest at sub-ms scales and over arbitrarily long
    streams."""

    def test_default_latency_buckets_resolve_sub_ms(self):
        histogram = MetricsRegistry().histogram("fast")
        values = (20e-6, 90e-6, 400e-6, 2e-3)
        for value in values:
            histogram.observe(value)
        sketch = QuantileSketch.from_dict(histogram.summary()["sketch"])
        quantiles = [sketch.quantile(q) for q in (0.0, 1 / 3, 2 / 3, 1.0)]
        assert len(set(quantiles)) == 4
        for estimate, value in zip(quantiles, values):
            assert estimate == pytest.approx(value, rel=sketch.alpha)

    def test_percentile_estimate_tracks_full_stream(self):
        import numpy as np

        values = np.random.default_rng(19).lognormal(-7.0, 1.0, 120_000)
        histogram = MetricsRegistry().histogram("hot")
        for value in values:
            histogram.observe(value)
        summary = histogram.summary()
        alpha = summary["sketch"]["alpha"]
        # Far past any fixed-size sample reservoir: every observation
        # counts, and the percentiles hold the sketch's error bound.
        assert summary["count"] == len(values)
        assert summary["max"] == values.max()
        for key, q in (("p50", 0.5), ("p99", 0.99)):
            assert summary[key] == pytest.approx(
                np.quantile(values, q), rel=alpha
            )

    def test_percentile_estimate_validation(self):
        histogram = MetricsRegistry().histogram("finite-only")
        histogram.observe(0.1)
        before = histogram.summary()
        # A non-finite value would poison every later percentile; it is
        # refused before any of the histogram's state changes.
        for value in (float("nan"), float("inf")):
            with pytest.raises(StatsError):
                histogram.observe(value)
        assert histogram.summary() == before


class TestSnapshotMerge:
    """``/metrics`` histogram snapshots carry the sketch state, so
    snapshots from separate registries, threads or processes combine
    into exactly the single-stream answer."""

    @staticmethod
    def _stream(n: int = 20_000) -> list[float]:
        import numpy as np

        rng = np.random.default_rng(7)
        return [float(v) for v in rng.lognormal(-8.0, 1.5, n)]

    def test_split_snapshots_merge_exactly(self):
        values = self._stream()
        halves = (values[::2], values[1::2])
        name = "serve.request_seconds.study_get"
        parts = []
        for half in halves:
            registry = MetricsRegistry()
            for value in half:
                registry.histogram(name).observe(value)
            parts.append(registry.snapshot()[name])
        whole_registry = MetricsRegistry()
        for value in values:
            whole_registry.histogram(name).observe(value)
        whole = whole_registry.snapshot()[name]

        merged = QuantileSketch.from_dict(parts[0]["sketch"]).merge(
            QuantileSketch.from_dict(parts[1]["sketch"])
        )
        assert merged == QuantileSketch.from_dict(whole["sketch"])
        assert merged.to_dict() == whole["sketch"]
        assert parts[0]["count"] + parts[1]["count"] == whole["count"]
        assert merged.count == whole["count"]
        assert max(part["max"] for part in parts) == whole["max"]
        for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
            assert merged.quantile(q) == whole[key]
        assert parts[0]["total"] + parts[1]["total"] == pytest.approx(
            whole["total"]
        )

    def test_threaded_observations_equal_serial(self):
        """More threads than cores, switching often: a lost update
        would leave the threaded sketch short of the serial one."""
        values = self._stream()
        threaded = MetricsRegistry().histogram("threaded")
        barrier = threading.Barrier(8)

        def work(chunk: list[float]) -> None:
            barrier.wait(10.0)
            for value in chunk:
                threaded.observe(value)

        threads = [
            threading.Thread(target=work, args=(values[i::8],))
            for i in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        serial = MetricsRegistry().histogram("serial")
        for value in values:
            serial.observe(value)
        threaded_summary, serial_summary = (
            threaded.summary(), serial.summary()
        )
        for key in ("count", "max", "p50", "p90", "p99", "sketch"):
            assert threaded_summary[key] == serial_summary[key]


class TestTelemetryFacade:
    def test_ensure_normalizes_none(self):
        assert ensure(None) is NULL_TELEMETRY
        tel = Telemetry()
        assert ensure(tel) is tel

    def test_null_telemetry_is_disabled_and_inert(self):
        tel = NullTelemetry()
        assert not tel.enabled
        tel.metrics.counter("x").inc()
        assert tel.metrics.snapshot() == {}
        assert tel.tracer.spans() == ()

    def test_enabled_telemetry_defaults(self):
        tel = Telemetry()
        assert tel.enabled
        assert "pipeline.stage_seconds" in tel.metrics.names()


def _traced_diamond_run():
    """Run a tiny diamond DAG under fresh telemetry; returns (tel, run)."""
    tel = Telemetry()
    pipeline = Pipeline(
        [
            Stage("base", lambda inputs: [1, 2, 3]),
            Stage("left", lambda inputs: sum(inputs["base"]), deps=("base",)),
            Stage("right", lambda inputs: max(inputs["base"]), deps=("base",)),
            Stage(
                "join",
                lambda inputs: inputs["left"] + inputs["right"],
                deps=("left", "right"),
            ),
        ],
        name="traced-diamond",
    )
    cache = ArtifactCache()
    run = pipeline.run(cache=cache, telemetry=tel)
    return tel, pipeline, cache, run


class TestPipelineInstrumentation:
    def test_spans_cover_run_and_stages(self):
        tel, _, _, run = _traced_diamond_run()
        spans = tel.tracer.spans()
        names = {s.name for s in spans}
        assert "pipeline.run" in names
        assert {"stage:base", "stage:left", "stage:right", "stage:join"} <= names
        run_span = next(s for s in spans if s.name == "pipeline.run")
        for span in spans:
            if span.name.startswith("stage:"):
                assert span.parent_id == run_span.span_id
                assert span.tags["outcome"] == "executed"

    def test_metrics_count_executions(self):
        tel, _, _, run = _traced_diamond_run()
        snapshot = tel.metrics.snapshot()
        assert snapshot["pipeline.stages_executed"]["value"] == 4
        assert snapshot["pipeline.stages_cached"]["value"] == 0
        assert snapshot["pipeline.stage_seconds"]["count"] == 4
        assert snapshot["cache.stores"]["value"] == 4

    def test_warm_run_records_cached_outcomes(self):
        tel, pipeline, cache, _ = _traced_diamond_run()
        warm_tel = Telemetry()
        warm = pipeline.run(cache=cache, telemetry=warm_tel)
        assert warm.executed == ()
        outcomes = [
            s.tags.get("outcome")
            for s in warm_tel.tracer.spans()
            if s.name.startswith("stage:")
        ]
        assert outcomes == ["cached"] * 4
        snapshot = warm_tel.metrics.snapshot()
        assert snapshot["pipeline.stages_cached"]["value"] == 4
        assert snapshot["pipeline.stages_executed"]["value"] == 0

    def test_cache_binding_is_restored_after_run(self):
        tel, _, cache, _ = _traced_diamond_run()
        assert cache.telemetry is None  # bound only for the run's duration

    def test_failed_stage_span_tags_error(self):
        def boom(inputs):
            raise ValueError("kaput")

        tel = Telemetry()
        pipeline = Pipeline([Stage("boom", boom)], name="failing")
        with pytest.raises(StageExecutionError):
            pipeline.run(telemetry=tel)
        span = next(
            s for s in tel.tracer.spans() if s.name == "stage:boom"
        )
        assert "error" in span.tags


class TestCacheStats:
    def test_stats_snapshot(self, tmp_path):
        from repro.pipeline import stable_digest

        cache = ArtifactCache(tmp_path)
        key = stable_digest("k")
        cache.store(key, list(range(100)))
        cache.load(key)
        cache.get(stable_digest("absent"))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["evictions"] == 0
        assert stats["entries"] == 1
        assert stats["disk_bytes"] > 0
        assert stats["directory"] == str(tmp_path)

    def test_eviction_counted_only_when_present(self, tmp_path):
        from repro.pipeline import stable_digest

        cache = ArtifactCache(tmp_path)
        cache.evict(stable_digest("ghost"))
        assert cache.evictions == 0
        key = stable_digest("real")
        cache.store(key, "v")
        cache.evict(key)
        assert cache.evictions == 1

    def test_corrupt_artifact_recovery_counts_eviction(self, tmp_path):
        """Cache rot healed by the runner must show up in stats()."""
        pipeline = Pipeline(
            [Stage("only", lambda inputs: {"v": 42})], name="rotten"
        )
        pipeline.run(cache=ArtifactCache(tmp_path))
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"garbage")
        healing_cache = ArtifactCache(tmp_path)
        rerun = pipeline.run(cache=healing_cache)
        assert rerun["only"] == {"v": 42}
        stats = healing_cache.stats()
        assert stats["evictions"] == 1  # the corrupt artifact was purged
        assert stats["stores"] == 1  # and re-stored after recompute

    def test_telemetry_mirrors_counters(self, tmp_path):
        from repro.pipeline import stable_digest

        tel = Telemetry()
        cache = ArtifactCache(tmp_path, telemetry=tel)
        key = stable_digest("k")
        cache.store(key, "value")
        cache.load(key)
        cache.evict(key)
        snapshot = tel.metrics.snapshot()
        assert snapshot["cache.stores"]["value"] == 1
        assert snapshot["cache.hits"]["value"] == 1
        assert snapshot["cache.evictions"]["value"] == 1
        assert snapshot["cache.bytes_written"]["value"] > 0


class TestExporters:
    def test_events_jsonl_roundtrip(self, tmp_path):
        tel, _, _, _ = _traced_diamond_run()
        path = write_events_jsonl(tel, tmp_path / "events.jsonl")
        lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        span_lines = [e for e in events if e["type"] == "span"]
        metric_lines = [e for e in events if e["type"] == "metric"]
        assert len(span_lines) == 5  # 4 stages + pipeline.run
        assert any(e["name"] == "cache.stores" for e in metric_lines)
        assert span_events(tel)[0]["type"] == "span"

    def test_chrome_trace_structure(self):
        tel, _, _, _ = _traced_diamond_run()
        trace = chrome_trace(tel)
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 5
        assert metadata, "thread metadata events expected"
        for event in complete:
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert isinstance(event["tid"], int)
        stage_events = [e for e in complete if e["name"].startswith("stage:")]
        assert all("cpu_ms" in e["args"] for e in stage_events)

    def test_chrome_trace_file_loads(self, tmp_path):
        tel, _, _, _ = _traced_diamond_run()
        path = write_chrome_trace(tel, tmp_path / "trace.json")
        events = load_chrome_trace(path)
        assert {e["name"] for e in events} >= {"pipeline.run", "stage:join"}

    def test_load_chrome_trace_accepts_bare_array(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(
            json.dumps([{"name": "x", "ph": "X", "ts": 0, "dur": 5}]),
            encoding="utf-8",
        )
        assert len(load_chrome_trace(path)) == 1

    def test_load_chrome_trace_rejects_garbage(self, tmp_path):
        missing = tmp_path / "missing.json"
        with pytest.raises(TelemetryError):
            load_chrome_trace(missing)
        bad = tmp_path / "bad.json"
        bad.write_text("not json", encoding="utf-8")
        with pytest.raises(TelemetryError):
            load_chrome_trace(bad)
        empty = tmp_path / "empty.json"
        empty.write_text('{"traceEvents": []}', encoding="utf-8")
        with pytest.raises(TelemetryError):
            load_chrome_trace(empty)


class TestProfileReport:
    def test_stage_profiles_aggregate_and_rank(self):
        tel, pipeline, cache, _ = _traced_diamond_run()
        pipeline.run(cache=cache, telemetry=tel)  # warm: adds cached spans
        profiles = {p.name: p for p in stage_profiles(tel.tracer.spans())}
        assert set(profiles) == {"base", "left", "right", "join"}
        base = profiles["base"]
        assert base.executions == 1
        assert base.cache_hits == 1
        assert base.hit_ratio == 0.5
        assert base.wall >= base.self_time >= 0.0

    def test_report_contents(self):
        tel, _, cache, _ = _traced_diamond_run()
        report = profile_report(tel, cache_stats=cache.stats())
        assert "Profile —" in report
        assert "base" in report and "join" in report
        assert "hit ratio" in report
        assert "4 store(s)" in report
        assert "stage duration percentiles" in report

    def test_report_top_n(self):
        tel, _, _, _ = _traced_diamond_run()
        report = profile_report(tel, top=2)
        assert "more stage(s) omitted" in report

    def test_disabled_telemetry_reports_a_hint(self):
        report = profile_report(NULL_TELEMETRY)
        assert "disabled" in report

    def test_render_trace(self, tmp_path):
        tel, _, _, _ = _traced_diamond_run()
        path = write_chrome_trace(tel, tmp_path / "trace.json")
        text = render_trace(load_chrome_trace(path), width=40)
        assert "trace —" in text
        assert "stage:join" in text
        assert "#" in text
        assert render_trace([]) == "(empty trace)"


class TestStructuredLogger:
    def test_events_record_level_name_and_fields(self):
        log = StructuredLogger()
        log.info("cache.miss", key="abc", n=3)
        (event,) = log.events()
        assert event.event == "cache.miss"
        assert event.level == "info"
        assert event.fields == {"key": "abc", "n": 3}
        assert event.thread_id == threading.get_ident()
        assert event.span_id is None

    def test_level_filtering(self):
        log = StructuredLogger(level="warning")
        assert log.debug("dropped") is None
        assert log.info("dropped") is None
        assert log.warning("kept") is not None
        assert log.error("kept.too") is not None
        assert [e.event for e in log.events()] == ["kept", "kept.too"]
        assert [e.event for e in log.events(min_level="error")] == [
            "kept.too"
        ]

    def test_unknown_level_raises(self):
        log = StructuredLogger()
        with pytest.raises(TelemetryError, match="unknown log level"):
            log.log("loud", "x")
        with pytest.raises(TelemetryError):
            StructuredLogger(level="shouty")

    def test_span_correlation(self):
        tracer = Tracer()
        log = StructuredLogger(tracer=tracer)
        log.info("outside")
        with tracer.span("stage:collect") as span:
            log.info("inside")
        events = {e.event: e for e in log.events()}
        assert events["outside"].span_id is None
        assert events["inside"].span_id == span.span_id

    def test_ndjson_lines_parse_and_nest_fields(self):
        log = StructuredLogger()
        log.warning("cache.evict", key="abc123")
        (line,) = log.lines()
        payload = json.loads(line)
        assert payload["type"] == "log"
        assert payload["event"] == "cache.evict"
        assert payload["fields"] == {"key": "abc123"}

    def test_stream_receives_one_line_per_event(self):
        import io

        stream = io.StringIO()
        log = StructuredLogger(stream=stream)
        log.info("one")
        log.info("two")
        lines = stream.getvalue().splitlines()
        assert [json.loads(line)["event"] for line in lines] == [
            "one", "two"
        ]

    def test_write_ndjson_and_clear(self, tmp_path):
        log = StructuredLogger()
        log.info("a")
        path = log.write_ndjson(tmp_path / "sub" / "events.ndjson")
        assert path.read_text(encoding="utf-8").count("\n") == 1
        log.clear()
        assert log.events() == ()

    def test_levels_table_is_ordered(self):
        assert (
            LOG_LEVELS["debug"]
            < LOG_LEVELS["info"]
            < LOG_LEVELS["warning"]
            < LOG_LEVELS["error"]
        )

    def test_null_logger_is_inert(self):
        assert not NULL_LOGGER.enabled
        assert NULL_LOGGER.debug("x", a=1) is None
        assert NULL_LOGGER.events() == ()
        assert NULL_LOGGER.lines() == []
        NULL_LOGGER.clear()
        assert isinstance(NULL_LOGGER, NullLogger)

    def test_telemetry_facade_binds_logger_to_its_tracer(self):
        tel = Telemetry()
        assert isinstance(tel.log, StructuredLogger)
        assert tel.log.tracer is tel.tracer
        assert isinstance(NULL_TELEMETRY.log, NullLogger)


class TestRunnerLogEvents:
    def test_traced_run_narrates_plan_stages_and_finish(self):
        tel, _, _, _ = _traced_diamond_run()
        events = [e.event for e in tel.log.events()]
        assert events[0] == "pipeline.plan"
        assert events[-1] == "pipeline.finish"
        assert events.count("stage.start") == 4
        assert events.count("stage.finish") == 4
        plan = tel.log.events()[0]
        assert plan.fields["must_run"] == ["base", "left", "right", "join"]

    def test_stage_error_is_logged_before_raising(self):
        tel = Telemetry()
        pipeline = Pipeline(
            [Stage("boom", lambda inputs: 1 / 0)], name="log-error"
        )
        with pytest.raises(StageExecutionError):
            pipeline.run(cache=ArtifactCache(), telemetry=tel)
        errors = [e for e in tel.log.events() if e.level == "error"]
        assert [e.event for e in errors] == ["stage.error"]
        assert "ZeroDivisionError" in errors[0].fields["error"]

    def test_cache_corruption_is_logged(self, tmp_path):
        tel = Telemetry()
        pipeline = Pipeline(
            [Stage("stage", lambda inputs: [1, 2])], name="log-rot"
        )
        cache = ArtifactCache(tmp_path)
        pipeline.run(cache=cache, telemetry=tel)
        # Corrupt the on-disk artifact, drop the memory layer, re-run.
        for path in tmp_path.glob("*.pkl"):
            path.write_bytes(b"corrupt")
        fresh = ArtifactCache(tmp_path)
        result = pipeline.run(cache=fresh, telemetry=tel)
        assert result.executed == ("stage",)
        events = [e.event for e in tel.log.events()]
        assert "cache.corrupt" in events
        assert "cache.rot" in events
        assert "cache.evict" in events
