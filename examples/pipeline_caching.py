#!/usr/bin/env python3
"""Pipeline caching and crash-safe resume, demonstrated.

Runs the ICSC study through :mod:`repro.pipeline` three ways:

1. a *cold* run against an empty disk cache — every stage executes;
2. a *warm* run against the same cache — zero stages execute, the
   results come straight off the content-addressed artifacts;
3. a *resumed* run — a fresh cache is interrupted mid-pipeline (the
   survey stage "crashes"), then re-run on a new cache object over the
   same directory: the artifacts stored before the crash are all the
   run needs to skip those stages, so only the tail re-executes.

Run with::

    python examples/pipeline_caching.py
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.errors import StageExecutionError
from repro.pipeline import (
    ArtifactCache,
    Pipeline,
    Stage,
    build_icsc_pipeline,
    run_icsc_pipeline,
)


def main() -> None:
    cache_dir = Path("output/pipeline-cache")
    cache = ArtifactCache(cache_dir)
    cache.clear()  # make the first run genuinely cold

    # 1. Cold: every stage executes and lands in the on-disk cache.
    t0 = time.perf_counter()
    results, run = run_icsc_pipeline(cache=cache)
    cold_s = time.perf_counter() - t0
    print(f"cold run:  {cold_s * 1e3:7.2f} ms  "
          f"stages executed: {', '.join(run.executed)}")

    # 2. Warm: same parameters, nothing recomputes.
    t0 = time.perf_counter()
    warm_results, warm = run_icsc_pipeline(cache=cache)
    warm_s = time.perf_counter() - t0
    print(f"warm run:  {warm_s * 1e3:7.2f} ms  "
          f"stages executed: {len(warm.executed)} "
          f"(served {len(warm.cached)} from cache, "
          f"{cold_s / max(warm_s, 1e-9):.0f}x faster)")
    assert warm_results.q3.top_direction == results.q3.top_direction

    # 3. Crash and resume: interrupt the pipeline after `collect` and
    #    `classify`, then rerun — the cache alone picks up from there.
    resume_dir = cache_dir / "resume-demo"
    ArtifactCache(resume_dir).clear()
    pipeline = build_icsc_pipeline()

    def crashing_survey(inputs, **params):
        raise RuntimeError("simulated crash in the survey stage")

    # Same DAG, same cache keys — only the survey body is sabotaged.
    broken = Pipeline(
        [
            Stage(s.name, crashing_survey, deps=s.deps, params=s.params,
                  version=s.version) if s.name == "survey" else s
            for s in pipeline.stages.values()
        ],
        name=pipeline.name,
        version=pipeline.version,
    )
    try:
        broken.run(["analyze"], cache=ArtifactCache(resume_dir))
    except StageExecutionError:
        # A new process would see only the directory: so does a new cache.
        on_disk = ArtifactCache(resume_dir)
        done = ", ".join(
            name for name, key in pipeline.stage_keys().items()
            if key in on_disk
        )
        print(f"interrupted run crashed at 'survey'; cache holds: {done}")

    resumed = pipeline.run(["analyze"], cache=ArtifactCache(resume_dir))
    print(f"resumed run executed only: {', '.join(resumed.executed)} "
          f"(skipped: {', '.join(resumed.cached)})")
    assert resumed["analyze"].q3.top_direction == "orchestration"

    print(f"\nMost demanded direction: {results.q3.top_direction}")
    print(f"Artifact cache on disk: {cache_dir}/ "
          f"({sum(1 for _ in cache.keys())} artifacts)")


if __name__ == "__main__":
    main()
