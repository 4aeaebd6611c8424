"""The stage-DAG pipeline runner: caching and resume.

A :class:`Pipeline` is a directed acyclic graph of named :class:`Stage`\\ s.
Each stage is a pure function of its dependencies' outputs and its own
parameters, which buys three properties for free:

* **content-addressed caching** — every stage gets a deterministic key
  (:meth:`Pipeline.stage_keys`) hashing its code-version tag, parameters,
  and — transitively, through its dependencies' keys — everything upstream.
  A key hit in the :class:`~repro.pipeline.cache.ArtifactCache` skips the
  stage with no loss of fidelity;
* **deterministic execution** — stages that must run execute one at a
  time in stable topological order;
* **crash-safe resume** — each finished stage's artifact is stored
  atomically in the cache as soon as it completes, so a re-run after an
  interruption finds those keys and restarts from the last finished
  stage; the cache is the only record of progress.

Passing ``telemetry=`` (a :class:`repro.telemetry.Telemetry`) records a
span per stage — wall time, per-thread CPU time, executed-vs-cached
outcome — under one run-level span, plus the pipeline metrics (stage
duration histogram and cache counters) and
span-correlated structured log events (``pipeline.plan``,
``stage.start``/``finish``/``error``, ``cache.rot``,
``pipeline.finish``) on ``telemetry.log``.  The default is a shared
no-op whose cost is a few attribute lookups per stage.

Example
-------
>>> double = Stage("double", lambda inputs, x: x * 2, params={"x": 21})
>>> shout = Stage("shout", lambda inputs: f"{inputs['double']}!", deps=("double",))
>>> result = Pipeline([double, shout]).run()
>>> result["shout"]
'42!'
>>> result.executed
('double', 'shout')
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import (
    CacheError,
    PipelineDefinitionError,
    StageExecutionError,
)
from repro.pipeline.cache import ArtifactCache, stable_digest
from repro.telemetry.hooks import Telemetry, ensure as _ensure_telemetry

__all__ = ["Stage", "Pipeline", "PipelineResult"]

_MISSING = object()


@dataclass(frozen=True)
class Stage:
    """One named node of a pipeline DAG.

    Attributes
    ----------
    name:
        Unique stage name within the pipeline.
    fn:
        ``fn(inputs, **params)`` where *inputs* maps each dependency name
        to that stage's output.  Must be deterministic in its arguments.
    deps:
        Names of the stages whose outputs this stage consumes.
    params:
        Keyword parameters for *fn*; part of the cache key, so they must
        be JSON-canonicalizable (see
        :func:`~repro.pipeline.cache.stable_digest`).
    version:
        Code-version tag; bump when *fn*'s behaviour changes so stale
        cached artifacts are not reused.
    validate:
        Optional predicate over a cached value; if it returns False the
        stage re-executes (e.g. a render stage whose output files were
        deleted out from under the cache).
    """

    name: str
    fn: Callable[..., Any]
    deps: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    version: str = "1"
    validate: Callable[[Any], bool] | None = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise PipelineDefinitionError("stage name must be a non-empty string")
        object.__setattr__(self, "deps", tuple(self.deps))
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one :meth:`Pipeline.run`.

    Attributes
    ----------
    outputs:
        Target stage name → output value.
    executed:
        Names of stages actually computed this run, in completion order.
    cached:
        Names of stages satisfied from the cache (skipped).
    keys:
        Stage name → content-addressed cache key, for every needed stage.
    """

    outputs: dict[str, Any]
    executed: tuple[str, ...]
    cached: tuple[str, ...]
    keys: dict[str, str]

    def __getitem__(self, name: str) -> Any:
        return self.outputs[name]


class Pipeline:
    """A DAG of :class:`Stage`\\ s executable with caching and resume.

    Parameters
    ----------
    stages:
        The stages; dependency names must refer to other stages in the
        same pipeline and the graph must be acyclic.
    name, version:
        Identify the pipeline (and its code generation) inside cache
        keys, so two different pipelines never collide in a shared
        cache.
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        name: str = "pipeline",
        version: str = "1",
    ) -> None:
        self.name = name
        self.version = version
        self.stages: dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self.stages:
                raise PipelineDefinitionError(
                    f"duplicate stage name {stage.name!r}"
                )
            self.stages[stage.name] = stage
        for stage in self.stages.values():
            for dep in stage.deps:
                if dep not in self.stages:
                    raise PipelineDefinitionError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}"
                    )
        self._order = self._topological_order()

    # -- structure ---------------------------------------------------------------

    def _topological_order(self) -> tuple[str, ...]:
        """Kahn's algorithm, stable in declaration order (deterministic)."""
        declared = list(self.stages)
        remaining_deps = {
            name: set(stage.deps) for name, stage in self.stages.items()
        }
        dependents: dict[str, list[str]] = {name: [] for name in declared}
        for name, stage in self.stages.items():
            for dep in stage.deps:
                dependents[dep].append(name)
        order: list[str] = []
        ready = [name for name in declared if not remaining_deps[name]]
        while ready:
            name = ready.pop(0)
            order.append(name)
            for dependent in dependents[name]:
                remaining_deps[dependent].discard(name)
                if not remaining_deps[dependent]:
                    ready.append(dependent)
            ready.sort(key=declared.index)
        if len(order) != len(declared):
            cyclic = sorted(set(declared) - set(order))
            raise PipelineDefinitionError(
                f"pipeline has a dependency cycle through {cyclic}"
            )
        return tuple(order)

    @property
    def order(self) -> tuple[str, ...]:
        """Deterministic topological execution order of all stages."""
        return self._order

    def stage_keys(self) -> dict[str, str]:
        """Content-addressed cache key for every stage.

        A stage's key hashes the pipeline identity, the stage's name,
        version tag, and parameters, and its dependencies' keys — so any
        upstream change (code tag, parameter, added dependency) changes
        every downstream key and invalidates exactly the affected suffix
        of the DAG.
        """
        keys: dict[str, str] = {}
        for name in self._order:
            stage = self.stages[name]
            keys[name] = stable_digest(
                {
                    "pipeline": self.name,
                    "pipeline_version": self.version,
                    "stage": stage.name,
                    "stage_version": stage.version,
                    "params": stage.params,
                    "inputs": {dep: keys[dep] for dep in stage.deps},
                }
            )
        return keys

    def _closure(self, targets: Sequence[str]) -> set[str]:
        needed: set[str] = set()
        frontier = list(targets)
        while frontier:
            name = frontier.pop()
            if name in needed:
                continue
            if name not in self.stages:
                raise PipelineDefinitionError(f"unknown target stage {name!r}")
            needed.add(name)
            frontier.extend(self.stages[name].deps)
        return needed

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        targets: Sequence[str] | None = None,
        *,
        cache: ArtifactCache | None = None,
        telemetry: Telemetry | None = None,
    ) -> PipelineResult:
        """Execute the pipeline and return a :class:`PipelineResult`.

        Parameters
        ----------
        targets:
            Stages whose outputs are wanted (default: all stages).  Only
            the dependency closure of the targets is considered.
        cache:
            Artifact cache consulted before executing any stage.  When
            omitted, an ephemeral in-memory cache still deduplicates
            within the run.  Each stage's artifact is stored as soon as
            the stage finishes, so re-running on the same on-disk cache
            after an interruption resumes from the last finished stage.
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry`: records a span
            per stage (plus the run and cache-hit events) and the
            pipeline metrics.  The default ``None`` is a shared no-op
            whose overhead is a few attribute lookups per stage (guarded
            by ``benchmarks/test_bench_telemetry.py``).  While the run
            is traced, an unbound *cache* is temporarily bound to the
            same telemetry so ``cache.*`` metrics land in one registry.
        """
        tel = _ensure_telemetry(telemetry)
        if targets is None:
            targets = list(self.stages)
        cache = cache if cache is not None else ArtifactCache()

        # Bind the cache to this run's telemetry (restored on exit).
        rebind = tel.enabled and getattr(cache, "telemetry", None) is None
        if rebind:
            cache.telemetry = tel
        try:
            with tel.tracer.span(
                "pipeline.run",
                pipeline=self.name,
                version=self.version,
                targets=tuple(targets),
            ) as run_span:
                return self._run_traced(targets, cache, tel, run_span)
        finally:
            if rebind:
                cache.telemetry = None

    def _run_traced(
        self,
        targets: Sequence[str],
        cache: ArtifactCache,
        tel: Telemetry,
        run_span,
    ) -> PipelineResult:
        """The :meth:`run` body, executing under the run-level span."""
        keys = self.stage_keys()

        needed = self._closure(targets)
        order = [name for name in self._order if name in needed]
        log = tel.log

        results: dict[str, Any] = {}
        executed: list[str] = []
        cached: list[str] = []

        metrics = tel.metrics
        stage_seconds = metrics.histogram("pipeline.stage_seconds")
        executed_count = metrics.counter("pipeline.stages_executed")
        cached_count = metrics.counter("pipeline.stages_cached")

        # Planning pass: decide, in topological order, which stages must
        # actually run.  A cached stage is skipped lazily — its value is
        # only loaded if a running dependent (or a target) needs it.
        must_run: list[str] = []
        for name in order:
            stage = self.stages[name]
            hit = keys[name] in cache
            if hit and stage.validate is not None:
                value = cache.get(keys[name], _MISSING)
                if value is not _MISSING and stage.validate(value):
                    results[name] = value
                else:
                    hit = False
            if hit:
                cached.append(name)
                if tel.enabled:
                    cached_count.inc()
                    with tel.tracer.span(
                        f"stage:{name}", parent=run_span,
                        stage=name, outcome="cached",
                    ):
                        pass
            else:
                must_run.append(name)
        if tel.enabled:
            log.info(
                "pipeline.plan",
                pipeline=self.name,
                targets=list(targets),
                must_run=must_run,
                cached=list(cached),
            )

        def materialize(name: str) -> None:
            """Load a planned-cached stage's value, recomputing on rot.

            A corrupt or vanished on-disk artifact (the key was present
            at planning time but the value is unreadable now) must not
            kill the run: the stage is recomputed from its inputs — the
            cache is an accelerator, never a point of failure.
            """
            if name in results:
                return
            try:
                results[name] = cache.load(keys[name])
                return
            except CacheError as exc:
                if tel.enabled:
                    log.warning(
                        "cache.rot", stage=name,
                        key=keys[name][:12], reason=str(exc),
                    )
                cache.evict(keys[name])
            for dep in self.stages[name].deps:
                materialize(dep)
            record(name, execute(name))
            if name in cached:
                cached.remove(name)

        def execute(name: str) -> Any:
            stage = self.stages[name]
            inputs = {dep: results[dep] for dep in stage.deps}
            with tel.tracer.span(
                f"stage:{name}", parent=run_span,
                stage=name, outcome="executed",
            ) as span:
                if tel.enabled:
                    log.debug("stage.start", stage=name)
                try:
                    value = stage.fn(inputs, **stage.params)
                except Exception as exc:
                    if tel.enabled:
                        log.error(
                            "stage.error", stage=name,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    raise StageExecutionError(
                        f"stage {name!r} failed: {exc}"
                    ) from exc
            stage_seconds.observe(span.duration or 0.0)
            executed_count.inc()
            if tel.enabled:
                log.debug(
                    "stage.finish", stage=name,
                    wall_s=span.duration, cpu_s=span.cpu_time,
                )
            return value

        def record(name: str, value: Any) -> None:
            cache.store(keys[name], value)
            results[name] = value
            executed.append(name)

        # Materialize cached inputs of stages that will run.
        running = set(must_run)
        for name in must_run:
            for dep in self.stages[name].deps:
                if dep not in running:
                    materialize(dep)

        for name in must_run:
            record(name, execute(name))

        for name in targets:
            materialize(name)
        if tel.enabled:
            log.info(
                "pipeline.finish",
                pipeline=self.name,
                executed=list(executed),
                cached=list(cached),
            )
        return PipelineResult(
            outputs={name: results[name] for name in targets},
            executed=tuple(executed),
            cached=tuple(cached),
            keys={name: keys[name] for name in order},
        )
