"""Unit tests for :mod:`repro.pipeline`: cache, manifest, runner, study DAG."""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.errors import (
    CacheError,
    PipelineDefinitionError,
    StageExecutionError,
)
from repro.pipeline import (
    ArtifactCache,
    Pipeline,
    PipelineResult,
    RunManifest,
    Stage,
    stable_digest,
)


class TestStableDigest:
    def test_mapping_key_order_is_irrelevant(self):
        assert stable_digest({"b": 1, "a": 2}) == stable_digest({"a": 2, "b": 1})

    def test_distinct_values_distinct_digests(self):
        assert stable_digest({"seed": 1}) != stable_digest({"seed": 2})
        assert stable_digest("x") != stable_digest("x", "y")

    def test_container_canonicalization(self):
        assert stable_digest((1, 2)) == stable_digest([1, 2])
        assert stable_digest({3, 1, 2}) == stable_digest([1, 2, 3])
        assert stable_digest(Path("a/b")) == stable_digest("a/b")

    def test_unhashable_type_rejected(self):
        with pytest.raises(CacheError):
            stable_digest(object())


class TestArtifactCache:
    def test_memory_roundtrip_and_counters(self):
        cache = ArtifactCache()
        key = stable_digest("k")
        assert key not in cache
        with pytest.raises(CacheError):
            cache.load(key)
        cache.store(key, {"v": 1})
        assert key in cache
        assert cache.load(key) == {"v": 1}
        assert (cache.hits, cache.misses, cache.stores) == (1, 1, 1)

    def test_disk_persists_across_instances(self, tmp_path):
        key = stable_digest("payload")
        ArtifactCache(tmp_path).store(key, [1, 2, 3])
        fresh = ArtifactCache(tmp_path)
        assert fresh.load(key) == [1, 2, 3]
        assert fresh.hits == 1

    def test_store_leaves_no_temp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store(stable_digest("a"), "x")
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_corrupt_artifact_reported_not_swallowed(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = stable_digest("corrupt")
        cache.store(key, "value")
        path = next(tmp_path.glob(f"{key}*.pkl"))
        path.write_bytes(b"not a pickle")
        with pytest.raises(CacheError):
            ArtifactCache(tmp_path).load(key)

    def test_evict_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        keys = [stable_digest(i) for i in range(3)]
        for key in keys:
            cache.store(key, key)
        cache.evict(keys[0])
        assert keys[0] not in cache and keys[1] in cache
        cache.clear()
        assert all(key not in cache for key in keys)
        assert list(tmp_path.glob("*.pkl")) == []


class TestRunManifest:
    def test_roundtrip(self, tmp_path):
        manifest = RunManifest(tmp_path / "run.json")
        manifest.begin("run-1")
        manifest.mark_complete("collect", "key-a")
        reloaded = RunManifest(tmp_path / "run.json")
        reloaded.begin("run-1")
        assert reloaded.is_complete("collect", "key-a")
        assert not reloaded.is_complete("collect", "key-other")
        assert reloaded.completed == {"collect": "key-a"}

    def test_different_run_key_discards_records(self, tmp_path):
        manifest = RunManifest(tmp_path / "run.json")
        manifest.begin("run-1")
        manifest.mark_complete("collect", "key-a")
        changed = RunManifest(tmp_path / "run.json")
        changed.begin("run-2")  # configuration changed: ledger resets
        assert changed.completed == {}

    def test_mark_without_begin_rejected(self, tmp_path):
        from repro.errors import PipelineError

        with pytest.raises(PipelineError):
            RunManifest(tmp_path / "run.json").mark_complete("s", "k")


def _diamond() -> Pipeline:
    """A diamond DAG: base → {left, right} → join."""
    return Pipeline(
        [
            Stage("base", lambda inputs, n: list(range(n)), params={"n": 5}),
            Stage(
                "left",
                lambda inputs: [x * 2 for x in inputs["base"]],
                deps=("base",),
            ),
            Stage(
                "right",
                lambda inputs: [x + 100 for x in inputs["base"]],
                deps=("base",),
            ),
            Stage(
                "join",
                lambda inputs: inputs["left"] + inputs["right"],
                deps=("left", "right"),
            ),
        ],
        name="diamond",
    )


class TestPipelineDefinition:
    def test_duplicate_stage_rejected(self):
        with pytest.raises(PipelineDefinitionError):
            Pipeline([Stage("a", lambda i: 1), Stage("a", lambda i: 2)])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(PipelineDefinitionError):
            Pipeline([Stage("a", lambda i: 1, deps=("ghost",))])

    def test_cycle_rejected(self):
        with pytest.raises(PipelineDefinitionError):
            Pipeline(
                [
                    Stage("a", lambda i: 1, deps=("b",)),
                    Stage("b", lambda i: 2, deps=("a",)),
                ]
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(PipelineDefinitionError):
            _diamond().run(["ghost"])

    def test_topological_order_is_deterministic(self):
        assert _diamond().order == ("base", "left", "right", "join")


class TestCacheKeys:
    def test_keys_stable_across_builds(self):
        assert _diamond().stage_keys() == _diamond().stage_keys()

    def test_param_change_invalidates_stage_and_downstream(self):
        baseline = _diamond().stage_keys()
        changed_pipeline = _diamond()
        stages = dict(changed_pipeline.stages)
        stages["base"] = Stage(
            "base", stages["base"].fn, params={"n": 6}
        )
        changed = Pipeline(stages.values(), name="diamond").stage_keys()
        assert changed["base"] != baseline["base"]
        assert changed["join"] != baseline["join"]  # invalidation propagates

    def test_stage_version_bump_invalidates(self):
        baseline = _diamond().stage_keys()
        bumped_pipeline = Pipeline(
            [
                Stage("base", lambda inputs, n: list(range(n)),
                      params={"n": 5}, version="2"),
                *(s for n, s in _diamond().stages.items() if n != "base"),
            ],
            name="diamond",
        )
        assert bumped_pipeline.stage_keys()["base"] != baseline["base"]

    def test_pipeline_identity_partitions_shared_cache(self):
        other = Pipeline(_diamond().stages.values(), name="other")
        assert other.stage_keys()["join"] != _diamond().stage_keys()["join"]


class TestPipelineRun:
    def test_serial_run_computes_everything(self):
        run = _diamond().run()
        assert run["join"] == [0, 2, 4, 6, 8, 100, 101, 102, 103, 104]
        assert run.executed == ("base", "left", "right", "join")
        assert run.cached == ()

    def test_warm_cache_executes_nothing(self):
        cache = ArtifactCache()
        first = _diamond().run(cache=cache)
        second = _diamond().run(cache=cache)
        assert second.executed == ()
        assert set(second.cached) == {"base", "left", "right", "join"}
        assert second.outputs == first.outputs

    def test_targets_run_only_their_closure(self):
        run = _diamond().run(["left"])
        assert set(run.executed) == {"base", "left"}
        assert set(run.outputs) == {"left"}

    @pytest.mark.parametrize("warm", [False, True])
    def test_stage_failure_wrapped(self, warm):
        """A raising stage is wrapped whether its input was just executed
        or served from a warm cache."""
        def boom(inputs):
            raise ValueError("kaput")

        cache = ArtifactCache()
        if warm:
            Pipeline([Stage("a", lambda i: 1)]).run(cache=cache)
        pipeline = Pipeline(
            [Stage("a", lambda i: 1), Stage("b", boom, deps=("a",))]
        )
        with pytest.raises(StageExecutionError, match="stage 'b' failed"):
            pipeline.run(cache=cache)

    def test_resume_after_simulated_crash(self, tmp_path):
        """Kill between stages; a re-run skips the completed prefix."""
        cache = ArtifactCache(tmp_path / "cache")
        manifest = RunManifest(tmp_path / "run.json")
        executions: list[str] = []

        def tracked(name, fn):
            def wrapper(inputs, **params):
                executions.append(name)
                return fn(inputs, **params)
            return wrapper

        def crash(inputs, **params):
            raise RuntimeError("simulated crash")

        def build(survey_fn):
            return Pipeline(
                [
                    Stage("collect", tracked("collect", lambda i: [1, 2, 3])),
                    Stage("survey", survey_fn, deps=("collect",)),
                    Stage(
                        "analyze",
                        tracked(
                            "analyze", lambda i: sum(i["survey"])
                        ),
                        deps=("survey",),
                    ),
                ],
                name="resumable",
            )

        broken = build(crash)
        with pytest.raises(StageExecutionError):
            broken.run(cache=cache, manifest=manifest)
        assert executions == ["collect"]
        assert set(manifest.completed) == {"collect"}

        # "Restart the process": fresh cache handle, fresh manifest handle.
        survey = tracked("survey", lambda i: [x * 10 for x in i["collect"]])
        rerun = build(survey).run(
            cache=ArtifactCache(tmp_path / "cache"),
            manifest=RunManifest(tmp_path / "run.json"),
        )
        assert executions == ["collect", "survey", "analyze"]  # no re-collect
        assert rerun.cached == ("collect",)
        assert rerun["analyze"] == 60

    def test_invalid_cached_value_reexecutes(self, tmp_path):
        target = tmp_path / "artifact.txt"

        def render(inputs):
            target.write_text("rendered", encoding="utf-8")
            return str(target)

        pipeline = Pipeline(
            [Stage("render", render,
                   validate=lambda path: Path(path).exists())]
        )
        cache = ArtifactCache()
        pipeline.run(cache=cache)
        assert pipeline.run(cache=cache).cached == ("render",)
        target.unlink()
        rerun = pipeline.run(cache=cache)
        assert rerun.executed == ("render",)
        assert target.exists()

    def test_corrupt_cached_artifact_recomputes(self, tmp_path):
        """Cache rot must not kill a run: the stage recomputes instead."""
        cache_dir = tmp_path / "cache"
        first = _diamond().run(cache=ArtifactCache(cache_dir))
        for path in cache_dir.glob("*.pkl"):
            path.write_bytes(b"garbage")
        rerun = _diamond().run(cache=ArtifactCache(cache_dir))
        assert rerun.outputs == first.outputs
        assert "join" in rerun.executed  # rot was detected and healed
        healed = _diamond().run(cache=ArtifactCache(cache_dir))
        assert healed.executed == ()  # the re-stored artifacts are good

    def test_result_is_picklable(self):
        run = _diamond().run()
        assert isinstance(pickle.loads(pickle.dumps(run)), PipelineResult)


class TestStageFailure:
    """Failure semantics: a raising stage must surface a
    :class:`StageExecutionError` naming the stage, dependents must never
    execute, and the manifest must stay resumable."""

    @staticmethod
    def _build(survey_fn, executions):
        """collect → {survey, classify} → analyze, with execution tracking."""
        def tracked(name, fn):
            def wrapper(inputs, **params):
                executions.append(name)
                return fn(inputs, **params)
            return wrapper

        return Pipeline(
            [
                Stage("collect", tracked("collect", lambda i: [1, 2, 3])),
                Stage("survey", survey_fn, deps=("collect",)),
                Stage(
                    "classify",
                    tracked("classify", lambda i: len(i["collect"])),
                    deps=("collect",),
                ),
                Stage(
                    "analyze",
                    tracked("analyze", lambda i: sum(i["survey"])),
                    deps=("survey", "classify"),
                ),
            ],
            name="stage-failure",
        )

    def test_error_names_the_failing_stage(self):
        def crash(inputs, **params):
            raise RuntimeError("simulated crash")

        executions: list[str] = []
        pipeline = self._build(crash, executions)
        with pytest.raises(StageExecutionError, match="stage 'survey' failed"):
            pipeline.run()

    def test_dependents_of_failed_stage_never_execute(self):
        def crash(inputs, **params):
            raise RuntimeError("boom")

        executions: list[str] = []
        pipeline = self._build(crash, executions)
        with pytest.raises(StageExecutionError):
            pipeline.run()
        assert "analyze" not in executions  # dependent was skipped
        assert "collect" in executions

    def test_manifest_stays_resumable_after_failure(self, tmp_path):
        """A stage crash leaves a consistent ledger; the re-run skips
        the recorded prefix and completes."""
        def crash(inputs, **params):
            raise RuntimeError("boom")

        executions: list[str] = []
        broken = self._build(crash, executions)
        cache_dir = tmp_path / "cache"
        with pytest.raises(StageExecutionError):
            broken.run(
                cache=ArtifactCache(cache_dir),
                manifest=RunManifest(tmp_path / "run.json"),
            )
        ledger = RunManifest(tmp_path / "run.json")
        assert "collect" in ledger.completed  # prefix recorded
        assert "survey" not in ledger.completed
        assert "analyze" not in ledger.completed

        # "Restart the process" with the survey stage fixed (same name,
        # version, and params -> same cache key, so records still match).
        collect_runs_before = executions.count("collect")
        survey = lambda i: [x * 10 for x in i["collect"]]  # noqa: E731
        rerun = self._build(survey, executions).run(
            cache=ArtifactCache(cache_dir),
            manifest=RunManifest(tmp_path / "run.json"),
        )
        assert rerun["analyze"] == 60
        assert executions.count("collect") == collect_runs_before  # resumed

    def test_first_failure_wins_with_multiple_raising_stages(self):
        def crash(inputs, **params):
            raise RuntimeError("boom")

        pipeline = Pipeline(
            [
                Stage("a", crash),
                Stage("b", crash),
                Stage("c", lambda i: 1),
            ],
            name="multi-failure",
        )
        with pytest.raises(StageExecutionError, match="failed: boom"):
            pipeline.run()

    def test_run_emits_wellformed_span_attributed_ndjson(self):
        """Stages logging through one StructuredLogger must produce one
        parseable NDJSON line per event, and every stage event must
        carry its own stage span's id."""
        import io
        import json

        from repro.telemetry import StructuredLogger, Telemetry
        from repro.telemetry.tracer import Tracer

        stream = io.StringIO()
        tracer = Tracer()
        tel = Telemetry(
            tracer=tracer,
            log=StructuredLogger(tracer=tracer, stream=stream),
        )

        def survey(inputs, **params):
            return [x * 10 for x in inputs["collect"]]

        executions: list[str] = []
        pipeline = self._build(survey, executions)
        pipeline.run(telemetry=tel)

        lines = stream.getvalue().splitlines()
        payloads = [json.loads(line) for line in lines]  # all parse
        assert all(p["type"] == "log" for p in payloads)

        # Stage events are attributed to the emitting stage's span.
        span_of = {
            span.tags.get("stage"): span.span_id
            for span in tracer.spans()
            if span.name.startswith("stage:")
        }
        starts = [p for p in payloads if p["event"] == "stage.start"]
        assert {p["fields"]["stage"] for p in starts} == {
            "collect", "survey", "classify", "analyze"
        }
        for payload in starts:
            assert payload["span_id"] == span_of[payload["fields"]["stage"]]
        # The in-memory buffer and the stream agree line for line.
        assert len(tel.log.events()) == len(lines)


class TestStudyPipeline:
    @pytest.fixture(autouse=True)
    def fresh_process_cache(self):
        from repro.pipeline.study import reset_process_cache

        reset_process_cache()
        yield
        reset_process_cache()

    def test_warm_run_icsc_study_recomputes_nothing(self):
        """Second identical invocation must execute zero stages."""
        from repro import run_icsc_study
        from repro.pipeline.study import stage_execution_counts

        first = run_icsc_study(seed=2023)
        counts_after_cold = stage_execution_counts()
        assert counts_after_cold == {
            "collect": 1, "classify": 1, "survey": 1, "analyze": 1,
        }
        second = run_icsc_study(seed=2023)
        assert stage_execution_counts() == counts_after_cold
        assert second.q3.top_direction == first.q3.top_direction
        assert (
            second.comparison.permutation.p_value
            == first.comparison.permutation.p_value
        )

    def test_seed_change_invalidates_only_analyze(self):
        from repro import run_icsc_study
        from repro.pipeline.study import stage_execution_counts

        run_icsc_study(seed=2023)
        run_icsc_study(seed=7)
        counts = stage_execution_counts()
        assert counts["analyze"] == 2  # seed is an analyze parameter
        assert counts["collect"] == 1  # upstream stages stay cached

    def test_disk_cache_warm_across_instances(self, tmp_path):
        from repro.pipeline import ArtifactCache
        from repro.pipeline.study import run_icsc_pipeline

        _, cold = run_icsc_pipeline(cache=ArtifactCache(tmp_path))
        assert len(cold.executed) == 4
        _, warm = run_icsc_pipeline(cache=ArtifactCache(tmp_path))
        assert warm.executed == ()
        assert len(warm.cached) == 4

    def test_render_revalidates_missing_files(self, tmp_path):
        from repro.pipeline import ArtifactCache
        from repro.pipeline.study import render_icsc_artifacts

        cache = ArtifactCache()
        out = tmp_path / "artifacts"
        artifacts = render_icsc_artifacts(out, cache=cache)
        assert artifacts and all(p.exists() for p in artifacts.values())
        next(iter(artifacts.values())).unlink()
        again = render_icsc_artifacts(out, cache=cache)
        assert all(p.exists() for p in again.values())
