"""Unit tests for :mod:`repro.pipeline`: cache, runner, resume from the
cache (including after SIGKILL), study DAG."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import time
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
    Stage,
    stable_digest,
)
from tests import pipeline_kill_child

REPO_ROOT = Path(__file__).resolve().parents[1]


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
            broken.run(cache=cache)
        assert executions == ["collect"]
        on_disk = ArtifactCache(tmp_path / "cache")
        stored = {
            name for name, key in broken.stage_keys().items() if key in on_disk
        }
        assert stored == {"collect"}

        # "Restart the process": a fresh cache handle on the same directory.
        survey = tracked("survey", lambda i: [x * 10 for x in i["collect"]])
        rerun = build(survey).run(cache=ArtifactCache(tmp_path / "cache"))
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
    execute, and the cache must stay resumable."""

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

    def test_cache_resumes_after_failure(self, tmp_path):
        """A stage crash leaves the finished prefix in the cache; the
        re-run skips it and completes."""
        def crash(inputs, **params):
            raise RuntimeError("boom")

        executions: list[str] = []
        broken = self._build(crash, executions)
        cache_dir = tmp_path / "cache"
        with pytest.raises(StageExecutionError):
            broken.run(cache=ArtifactCache(cache_dir))
        keys = broken.stage_keys()
        on_disk = ArtifactCache(cache_dir)
        assert keys["collect"] in on_disk  # prefix stored
        assert keys["survey"] not in on_disk
        assert keys["analyze"] not in on_disk

        # "Restart the process" with the survey stage fixed (same name,
        # version, and params -> same cache key, so the artifacts match).
        collect_runs_before = executions.count("collect")
        survey = lambda i: [x * 10 for x in i["collect"]]  # noqa: E731
        rerun = self._build(survey, executions).run(
            cache=ArtifactCache(cache_dir)
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


class TestKillResume:
    """SIGKILL a child process mid-run, then resume from the cache alone.

    The cache is the only record of a run's progress: a fresh
    :class:`ArtifactCache` on the killed run's directory must hold only
    whole artifacts, and the re-run must equal an uninterrupted one.
    """

    @staticmethod
    def _kill(tmp_path, where, delay=0.0):
        """Run :mod:`tests.pipeline_kill_child` on ``tmp_path/cache``
        and SIGKILL it *delay* seconds after it reaches *where*."""
        marker = tmp_path / "marker"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
        )
        child = subprocess.Popen(
            [sys.executable, "-m", "tests.pipeline_kill_child",
             str(tmp_path / "cache"), str(marker), where],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while not marker.exists():
                if child.poll() is not None:
                    pytest.fail(f"child exited early: {child.stderr.read()}")
                if time.monotonic() > deadline:
                    pytest.fail("child never reached the kill point")
                time.sleep(0.001)
            time.sleep(delay)
        finally:
            child.kill()
            child.wait(timeout=30)
            child.stderr.close()
        return tmp_path / "cache"

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        cache_dir = tmp_path_factory.mktemp("uninterrupted")
        return pipeline_kill_child.build().run(cache=ArtifactCache(cache_dir))

    def test_killed_between_stages_resumes(self, tmp_path, uninterrupted):
        cache_dir = self._kill(tmp_path, "between")
        rerun = pipeline_kill_child.build().run(cache=ArtifactCache(cache_dir))
        assert rerun.executed == ("second", "third")
        assert rerun.cached == ("first",)
        assert rerun.outputs == uninterrupted.outputs

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_killed_mid_store_resumes(self, tmp_path, seed, uninterrupted):
        # Storing the ~4.8 MB artifact took about 0.15 s on a 2-core VM,
        # so most delays land inside the store; a later one kills the
        # stalled third stage instead.
        delay = random.Random(seed).uniform(0.0, 0.1)
        cache_dir = self._kill(tmp_path, "store", delay)
        on_disk = ArtifactCache(cache_dir)
        keys = list(on_disk.keys())
        assert not [key for key in keys if ".tmp" in key]
        for key in keys:  # no partial artifact is ever read
            on_disk.load(key)
        rerun = pipeline_kill_child.build().run(cache=ArtifactCache(cache_dir))
        assert rerun.outputs == uninterrupted.outputs
        assert "third" in rerun.executed
        # clear() removes the artifacts and any store the kill cut short.
        ArtifactCache(cache_dir).clear()
        assert list(cache_dir.iterdir()) == []


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
