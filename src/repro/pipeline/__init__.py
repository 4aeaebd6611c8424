"""Cached, resumable pipeline execution for mapping studies.

The substrate the rest of the library runs on:

* :mod:`repro.pipeline.runner` — :class:`Stage`/:class:`Pipeline`, a DAG
  runner with content-addressed skipping that executes stages one at a
  time in a deterministic topological order and stores each artifact as
  it lands, so an interrupted run resumes from the cache;
* :mod:`repro.pipeline.cache` — :class:`ArtifactCache`, a two-layer
  (memory + optional disk) content-addressed artifact store, and
  :func:`stable_digest`, the canonical hashing primitive;
* :mod:`repro.pipeline.study` — the ICSC study DAG
  (``collect → {classify, survey} → analyze [→ render]``) that
  :func:`repro.run_icsc_study`, the CLI, and the reporting layer share.

Every entry point accepts ``telemetry=`` (a
:class:`repro.telemetry.Telemetry`) to record per-stage spans and
pipeline metrics; see :mod:`repro.telemetry` and ``repro replicate
--profile``.

Quickstart
----------
>>> from repro.pipeline import ArtifactCache, run_icsc_pipeline
>>> cache = ArtifactCache()                    # or ArtifactCache("/some/dir")
>>> results, first = run_icsc_pipeline(cache=cache)
>>> results.q3.top_direction
'orchestration'
>>> _, second = run_icsc_pipeline(cache=cache)  # warm: nothing recomputes
>>> second.executed
()
"""

from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.pipeline.runner import Pipeline, PipelineResult, Stage
from repro.pipeline.study import (
    build_icsc_pipeline,
    render_icsc_artifacts,
    run_icsc_pipeline,
    stage_execution_counts,
)

__all__ = [
    "ArtifactCache",
    "Pipeline",
    "PipelineResult",
    "Stage",
    "build_icsc_pipeline",
    "render_icsc_artifacts",
    "run_icsc_pipeline",
    "stable_digest",
    "stage_execution_counts",
]
