"""The ICSC mapping study as a cached, resumable pipeline.

Wires the paper's stages — ``collect → {classify, survey} → analyze``,
plus an optional ``render`` fan-out — onto the
:class:`~repro.pipeline.runner.Pipeline` runner.  Every stage output is
content-addressed in an
:class:`~repro.pipeline.cache.ArtifactCache`, so repeated runs with
identical parameters (the common case: benchmarks, figure regeneration,
CLI invocations) recompute nothing.

Cache keys include :func:`repro.data.icsc.dataset_version` (a hash of the
encoded dataset module) and a pipeline code tag, so editing the dataset
or bumping :data:`CODE_VERSION` invalidates exactly the stale artifacts.

The module keeps a process-wide cache and per-stage execution counters
(:func:`stage_execution_counts`), which is how tests and benchmarks
assert the warm path truly skips recomputation.
"""

from __future__ import annotations

import os
import threading
from collections import Counter
from pathlib import Path
from typing import Any

from repro.pipeline.cache import ArtifactCache
from repro.pipeline.runner import Pipeline, PipelineResult, Stage

__all__ = [
    "CODE_VERSION",
    "build_icsc_pipeline",
    "run_icsc_pipeline",
    "render_icsc_artifacts",
    "process_cache",
    "reset_process_cache",
    "stage_execution_counts",
]

#: Bump when any stage function below changes behaviour.
CODE_VERSION = "1"

#: Process-wide count of stage executions (stage name → times computed).
_EXECUTIONS: Counter[str] = Counter()

_CACHE_LOCK = threading.Lock()
_PROCESS_CACHE: ArtifactCache | None = None


def process_cache() -> ArtifactCache:
    """The process-wide artifact cache used by default.

    In-memory by default; set the ``REPRO_CACHE_DIR`` environment
    variable to persist artifacts across processes.
    """
    global _PROCESS_CACHE
    with _CACHE_LOCK:
        if _PROCESS_CACHE is None:
            directory = os.environ.get("REPRO_CACHE_DIR") or None
            _PROCESS_CACHE = ArtifactCache(directory)
        return _PROCESS_CACHE


def reset_process_cache() -> None:
    """Drop the process-wide cache and execution counters (for tests)."""
    global _PROCESS_CACHE
    with _CACHE_LOCK:
        _PROCESS_CACHE = None
        _EXECUTIONS.clear()


def stage_execution_counts() -> dict[str, int]:
    """How many times each study stage has actually executed (a copy)."""
    return dict(_EXECUTIONS)


# -- stage functions --------------------------------------------------------------


def _stage_collect(inputs: dict[str, Any]) -> dict[str, Any]:
    """Load and validate the encoded ICSC ecosystem (protocol included)."""
    from repro.core.catalog import validate_ecosystem
    from repro.core.protocol import icsc_protocol
    from repro.data.icsc import (
        icsc_applications,
        icsc_institutions,
        icsc_tools,
    )

    _EXECUTIONS["collect"] += 1
    protocol = icsc_protocol()
    institutions = icsc_institutions()
    tools = icsc_tools()
    applications = icsc_applications()
    validate_ecosystem(institutions, tools, applications, protocol.scheme)
    return {
        "protocol": protocol,
        "institutions": institutions,
        "tools": tools,
        "applications": applications,
    }


def _stage_classify(
    inputs: dict[str, Any], *, check_with_classifier: bool = True
) -> Any:
    """Cross-check the manual labels with the keyword classifier."""
    from repro.core.study import classify_tools

    _EXECUTIONS["classify"] += 1
    if not check_with_classifier:
        return None
    collected = inputs["collect"]
    return classify_tools(collected["tools"], collected["protocol"].scheme)


def _stage_survey(inputs: dict[str, Any]) -> Any:
    """Run the tool-selection survey; returns (responses, selection)."""
    from repro.core.study import survey_selection

    _EXECUTIONS["survey"] += 1
    collected = inputs["collect"]
    return survey_selection(
        collected["tools"],
        collected["applications"],
        collected["protocol"].scheme,
    )


def _stage_analyze(inputs: dict[str, Any], *, seed: int = 2023) -> Any:
    """Answer the research questions; returns :class:`StudyResults`."""
    from repro.core.study import analyze_study

    _EXECUTIONS["analyze"] += 1
    collected = inputs["collect"]
    _, selection = inputs["survey"]
    return analyze_study(
        collected["tools"],
        collected["applications"],
        selection,
        collected["protocol"].scheme,
        seed=seed,
        classifier_evaluation=inputs["classify"],
    )


def _stage_render(
    inputs: dict[str, Any], *, output_dir: str, spoke1: bool = True
) -> dict[str, str]:
    """Write the full figure/table artifact set; returns name → path."""
    from repro.data.icsc import spoke1_structure
    from repro.reporting.figures import render_all_artifacts

    _EXECUTIONS["render"] += 1
    collected = inputs["collect"]
    artifacts = render_all_artifacts(
        collected["tools"],
        collected["applications"],
        collected["protocol"].scheme,
        output_dir,
        spoke1=spoke1_structure() if spoke1 else None,
    )
    return {name: str(path) for name, path in artifacts.items()}


def _artifacts_exist(artifacts: dict[str, str]) -> bool:
    """Cached render output is only valid while every file still exists."""
    return all(Path(path).is_file() for path in artifacts.values())


# -- pipeline construction --------------------------------------------------------


def _version_tag() -> str:
    from repro import __version__
    from repro.data.icsc import dataset_version

    return f"{__version__}+code{CODE_VERSION}+data{dataset_version()}"


def build_icsc_pipeline(
    *,
    seed: int = 2023,
    check_with_classifier: bool = True,
    output_dir: str | os.PathLike | None = None,
) -> Pipeline:
    """Build the study DAG: collect → {classify, survey} → analyze [→ render].

    The ``render`` stage is only present when *output_dir* is given; its
    cached value is revalidated against the filesystem, so deleting the
    rendered files forces a re-render even on a warm cache.
    """
    stages = [
        Stage("collect", _stage_collect),
        Stage(
            "classify",
            _stage_classify,
            deps=("collect",),
            params={"check_with_classifier": check_with_classifier},
        ),
        Stage("survey", _stage_survey, deps=("collect",)),
        Stage(
            "analyze",
            _stage_analyze,
            deps=("collect", "classify", "survey"),
            params={"seed": seed},
        ),
    ]
    if output_dir is not None:
        stages.append(
            Stage(
                "render",
                _stage_render,
                deps=("collect",),
                params={"output_dir": str(output_dir)},
                validate=_artifacts_exist,
            )
        )
    return Pipeline(stages, name="icsc-study", version=_version_tag())


def run_icsc_pipeline(
    *,
    seed: int = 2023,
    check_with_classifier: bool = True,
    cache: ArtifactCache | None = None,
    telemetry=None,
    registry=None,
) -> tuple[Any, PipelineResult]:
    """Run the ICSC study DAG; returns ``(StudyResults, PipelineResult)``.

    With the default *cache* (the process-wide one), a second invocation
    with identical parameters executes zero stages — inspect
    ``PipelineResult.executed``/``.cached`` or
    :func:`stage_execution_counts` to observe it.  Pass a
    :class:`repro.telemetry.Telemetry` as *telemetry* to record spans
    and pipeline metrics (see ``repro replicate --profile``).

    Pass a :class:`repro.obs.RunRegistry` as *registry* to append a
    :class:`~repro.obs.RunRecord` of this run (stage timings from
    *telemetry*, SHA-256 digests of every result artifact) to the run
    ledger — the input ``repro runs compare`` gates on.
    """
    pipeline = build_icsc_pipeline(
        seed=seed, check_with_classifier=check_with_classifier
    )
    run = pipeline.run(
        ["analyze"],
        cache=cache if cache is not None else process_cache(),
        telemetry=telemetry,
    )
    results = run["analyze"]
    if registry is not None:
        from repro.obs import build_study_record

        registry.record(
            build_study_record(
                results,
                run,
                telemetry=telemetry,
                meta={"seed": seed},
            )
        )
    return results, run


def render_icsc_artifacts(
    output_dir: str | os.PathLike,
    *,
    spoke1: bool = True,
    cache: ArtifactCache | None = None,
    telemetry=None,
) -> dict[str, Path]:
    """Render the full artifact set through the cached pipeline.

    Returns the same name → path mapping as
    :func:`repro.reporting.figures.render_all_artifacts`, but dataset
    loading and rendering ride the study DAG: a warm cache skips straight
    to revalidating that the files still exist.
    """
    pipeline = build_icsc_pipeline(output_dir=output_dir)
    run = pipeline.run(
        ["render"],
        cache=cache if cache is not None else process_cache(),
        telemetry=telemetry,
    )
    return {name: Path(path) for name, path in run["render"].items()}
