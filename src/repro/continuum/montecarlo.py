"""Monte-Carlo sweep engine: batched, process-parallel continuum experiments.

The one-shot simulators (:func:`repro.continuum.simulate.simulate_schedule`,
:func:`repro.continuum.failures.simulate_with_failures`) answer "what does
one noisy execution of this plan look like?".  The questions the paper's Q3
analysis raises — how do schedulers compare *in distribution* across
failure rates, jitter levels, and a fleet of workflows — need thousands of
replications per grid cell.  Paying the simulators' per-call setup (object
construction, string-keyed lookups, validation) thousands of times makes
that sweep orders of magnitude slower than the arithmetic it performs.

This module is the batched engine, in five layers:

1. **Per-replication speedup** — :class:`SimulationContext` hoists every
   schedule invariant out of the replication loop: integer-indexed
   adjacency, per-task durations on every resource, a precomputed
   ``task × src × dst`` transfer-cost table, the plan's start order, and
   the feasibility sets the migrate policy scans.  One replication then
   runs on flat lists of floats and ints in :func:`_replicate`, the
   package's one list-scheduling replay: ``simulate_with_failures`` wraps
   it, its ``mtbf=None`` branch is the makespan-only fast path, and
   ``simulate_schedule`` keeps its event loop for the reason given in
   :mod:`repro.continuum.simulate`.
2. **The round engine** — :func:`run_sweep` runs the grid on
   :mod:`repro.stats.rounds`, the package's one adaptive round engine
   (stat sweeps run on it too).  The engine feeds a shared round queue
   to a ``ProcessPoolExecutor`` (the pure-Python replay loop is
   GIL-bound, so threads cannot scale it) and dispatches the next
   pending round to whichever worker frees up, so a cell that finishes
   (or stops) early releases its worker to the slow cells.  Workers
   receive the schedules once (pool initializer), build contexts lazily,
   and return raw per-replication metric tuples (:func:`_worker_chunk`).
3. **Adaptive replication (sequential stopping)** — with
   ``SweepSpec.target_ci`` set, each cell runs replication *rounds*
   (``chunk_size`` replications each) only until the 95% confidence
   half-width of its primary metric's mean falls to ``target_ci``
   relative to that mean, capped at ``max_replications``
   (:func:`_stop_met`, the stop rule this module gives the engine).
   Low-variance cells stop after one round; only genuinely noisy cells
   spend the full budget — a large reduction in simulations at equal
   statistical precision (gated in ``benchmarks/test_bench_montecarlo.py``).
4. **Streaming, mergeable aggregation** — the engine hands each round
   to this module's fold, which adds the replications to one
   :class:`~repro.stats.sketch.RunningStat` (Welford moments beside a
   quantile sketch with an *exact, associative* merge) per metric and
   grid cell (:class:`CellAggregate`), so memory stays O(buckets) and
   partial aggregates from independent processes or hosts combine
   deterministically.
5. **Integration** — the engine content-addresses grid cells (an
   :class:`~repro.pipeline.cache.ArtifactCache` hit skips every
   simulation of an already-computed cell), opens the telemetry span,
   bumps the counters and writes the :class:`~repro.obs.RunRegistry`
   record; the ``repro sweep`` CLI command and the serve layer's
   ``POST /sweeps`` drive the whole thing through one spec builder.

Determinism contract
--------------------
Replication ``j`` of a grid cell draws from a dedicated
``np.random.SeedSequence`` child derived from ``(spec.seed, cell
identity)`` — NOT from a shared stream — so results are bit-identical
regardless of worker count, chunk size, serial fallback, or which other
cells share the grid, and the first ``R`` replications of a larger run
reproduce a smaller run exactly.  The parent merges round results in
replication order per cell — out-of-order completions are buffered until
their predecessors fold — which pins the floating-point fold order no
matter which worker ran which round, in what order rounds completed, or
how the round queue was drained (see ``steal_seed``).  Sequential
stopping preserves the guarantee because stop decisions are evaluated
only at fully-folded round boundaries, on statistics that are themselves
bit-identical across execution placements; the round size
(``chunk_size``) is therefore part of an adaptive cell's identity, while
for fixed-replication sweeps chunking still can never change results.
One replication with generator ``g`` reproduces
``simulate_with_failures(schedule, ..., rng=g)`` bit-for-bit when
``jitter == 0`` (the same kernel), and the makespan of
``simulate_schedule(schedule, jitter=j, rng=g)`` when ``mtbf is None``
(batch draws of NumPy ``Generator`` consume the stream exactly like the
equivalent scalar sequence).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import ne
from typing import Any, Mapping

import numpy as np

from repro.continuum.compile import CompiledProblem, compile_problem
from repro.continuum.resources import Continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
)
from repro.continuum.workflow import Workflow
from repro.errors import ContinuumError, MonteCarloError, StatsError
from repro.stats.rounds import (
    Rounds,
    SweepOutcome,
    Unit,
    Z_95,
    round_rng,
    run_rounds,
)
from repro.stats.sketch import QuantileSketch, RunningStat
from repro.sweep_params import SPEC_PARAMS, check_request

__all__ = [
    "ENGINE_VERSION",
    "SCHEDULERS",
    "METRIC_NAMES",
    "ReplicationResult",
    "SimulationContext",
    "replicate_once",
    "RunningStat",
    "QuantileSketch",
    "CellAggregate",
    "MetricSummary",
    "CellSpec",
    "CellStats",
    "SweepSpec",
    "SweepResult",
    "run_sweep",
    "parse_grid",
    "build_sweep_spec",
]

#: Bump when the replay semantics or the aggregation layout change —
#: part of every cell's cache key, so stale cached cells can never leak
#: into a sweep computed by a newer engine.  "2": quantile sketches
#: replaced fixed-bucket histograms in the cell aggregate, and the
#: replication plan (fixed count vs adaptive stopping) joined the key.
ENGINE_VERSION = "2"

#: Scheduler registry the sweep grid selects from by name.
SCHEDULERS: dict[str, Any] = {
    "heft": HeftScheduler,
    "energy": EnergyAwareScheduler,
    "round_robin": RoundRobinScheduler,
}

#: Per-replication metrics every grid cell aggregates, in fold order.
METRIC_NAMES = ("makespan", "slowdown", "retries", "migrations", "lost_work")


@dataclass(frozen=True, slots=True)
class ReplicationResult:
    """One replication's figures of merit (no placements: streaming-sized)."""

    makespan: float
    slowdown: float
    retries: int
    migrations: int
    lost_work: float

    def as_tuple(self) -> tuple[float, float, int, int, float]:
        return (
            self.makespan,
            self.slowdown,
            self.retries,
            self.migrations,
            self.lost_work,
        )


class SimulationContext:
    """Schedule invariants hoisted out of the replication loop.

    Everything a replication needs that does not depend on the random
    stream is computed once here: integer task/resource indices, the
    plan's start order, per-task durations on every resource (IEEE-equal
    to ``Resource.execution_time``), the plan's own placement durations
    (for the jitter-only path, where ``simulate_schedule`` multiplies the
    *placement* duration), predecessor adjacency, the full
    ``task × src × dst`` transfer-cost table (IEEE-equal to
    ``Continuum.transfer_time``), feasibility sets, and the
    key-sorted resource ranks that break migrate-policy ties on the
    resource key string.

    The pairing-level invariants (duration matrix, transfer table,
    adjacency, feasibility) live on
    :class:`~repro.continuum.compile.CompiledProblem`; pass ``problem=``
    to share one compilation across every schedule/context of the same
    workflow × continuum pairing — only the schedule-specific pieces
    (plan order, planned resources/durations) are rebuilt per context.
    A plan that starts a task before one of its predecessors raises
    :class:`~repro.errors.ContinuumError`: the replay needs that order.
    """

    __slots__ = (
        "schedule",
        "n_tasks",
        "n_resources",
        "order",
        "planned_res",
        "plan_dur",
        "dur",
        "transfer",
        "preds",
        "feasible",
        "res_rank",
        "planned_makespan",
    )

    def __init__(
        self, schedule: Schedule, problem: CompiledProblem | None = None
    ) -> None:
        if problem is None:
            problem = compile_problem(schedule.workflow, schedule.continuum)
        self._bind(schedule, problem)
        # Dense list tables, shared by every context of the problem.
        self.dur = problem.dur_lists()
        self.transfer = problem.transfer_lists()

    @classmethod
    def _one_shot(
        cls, schedule: Schedule, problem: CompiledProblem
    ) -> "SimulationContext":
        """A context for one replay: it computes each ``dur``/``transfer``
        entry when read, with the same IEEE operations, instead of
        building tables (10¹⁰ transfer entries at 10k tasks × 1k nodes)."""
        context = cls.__new__(cls)
        context._bind(schedule, problem)
        cw, cc = problem.cw, problem.cc
        speed = cc.speed.tolist()
        context.dur = [_DurationRow(work, speed) for work in cw.work.tolist()]
        context.transfer = [
            _TransferRows(size, cc.latency, cc.bandwidth)
            for size in cw.output_size.tolist()
        ]
        return context

    def _bind(self, schedule: Schedule, problem: CompiledProblem) -> None:
        cw, cc = problem.cw, problem.cc
        tindex = cw.index
        rindex = cc.index

        self.schedule = schedule
        self.n_tasks = cw.n_tasks
        self.n_resources = cc.n_resources
        self.order = [tindex[p.task] for p in schedule.placements]
        self.planned_res = [0] * self.n_tasks
        self.plan_dur = [0.0] * self.n_tasks
        for key in cw.keys:
            placement = schedule[key]
            self.planned_res[tindex[key]] = rindex[placement.resource]
            self.plan_dur[tindex[key]] = placement.duration
        self.preds = cw.pred_lists()
        _check_topological(self.order, self.preds, cw.keys)
        self.feasible = problem.feasible_id_lists()
        self.res_rank = cc.res_rank.tolist()
        self.planned_makespan = schedule.makespan


def _check_topological(
    order: list[int], preds: list[list[int]], keys: tuple[str, ...]
) -> None:
    """Raise unless every task starts after all of its predecessors."""
    position = {task: i for i, task in enumerate(order)}
    for task in order:
        for pred in preds[task]:
            if position[pred] > position[task]:
                raise ContinuumError(
                    f"plan starts task {keys[task]!r} before its "
                    f"predecessor {keys[pred]!r}; a replay needs a "
                    "topological start order"
                )


class _DurationRow:
    """``row[r]`` is ``work / speed[r]``, computed when read."""

    __slots__ = ("work", "speed")

    def __init__(self, work: float, speed: list[float]) -> None:
        self.work = work
        self.speed = speed

    def __getitem__(self, r: int) -> float:
        return self.work / self.speed[r]


class _TransferRows:
    """``rows[src][dst]`` is ``latency[src, dst] + size / bandwidth[src,
    dst]``, computed when read."""

    __slots__ = ("size", "latency", "bandwidth", "src")

    def __init__(
        self, size: float, latency, bandwidth, src: int | None = None
    ) -> None:
        self.size = size
        self.latency = latency
        self.bandwidth = bandwidth
        self.src = src

    def __getitem__(self, i: int):
        if self.src is None:
            return _TransferRows(self.size, self.latency, self.bandwidth, i)
        latency, bandwidth, src = self.latency, self.bandwidth, self.src
        return latency.item(src, i) + self.size / bandwidth.item(src, i)


def replicate_once(
    context: SimulationContext,
    *,
    mtbf: float | None = None,
    repair_time: float = 0.0,
    policy: str = "restart",
    jitter: float = 0.0,
    max_attempts: int = 50,
    rng: np.random.Generator,
) -> ReplicationResult:
    """Run one replication against a precomputed context.

    With ``mtbf=None`` this is the jitter-only replay (bit-identical
    makespan to :func:`~repro.continuum.simulate.simulate_schedule`);
    with a finite ``mtbf`` it is the failure replay that
    :func:`~repro.continuum.failures.simulate_with_failures` wraps
    (bit-identical to it when ``jitter == 0``).  Draw order: the
    per-task jitter factors first (task insertion order), then the
    per-resource initial failure times (continuum key order), then one
    exponential per consumed failure.
    """
    _validate_cell_params(
        mtbf=mtbf, repair_time=repair_time, policy=policy, jitter=jitter,
        max_attempts=max_attempts,
    )
    return _summarize(context, _replicate(
        context, mtbf, repair_time, policy == "migrate", jitter,
        max_attempts, rng,
    ))


def _validate_cell_params(
    *,
    mtbf: float | None,
    repair_time: float,
    policy: str,
    jitter: float,
    max_attempts: int,
) -> None:
    if mtbf is not None and not mtbf > 0:
        raise MonteCarloError("mtbf must be > 0 (or None for no failures)")
    if not (math.isfinite(repair_time) and repair_time >= 0):
        raise MonteCarloError(
            f"repair_time must be a finite value >= 0, got {repair_time}"
        )
    if policy not in ("restart", "migrate"):
        raise MonteCarloError(f"unknown policy {policy!r}")
    if not (math.isfinite(jitter) and jitter >= 0):
        raise MonteCarloError(
            f"jitter must be a finite value >= 0, got {jitter}"
        )
    if max_attempts < 1:
        raise MonteCarloError("max_attempts must be >= 1")


def _replicate(
    ctx: SimulationContext,
    mtbf: float | None,
    repair_time: float,
    migrate: bool,
    jitter: float,
    max_attempts: int,
    rng: np.random.Generator,
    killed: list[tuple[int, int, float, float, int]] | None = None,
) -> tuple[list[float], list[float], list[int], int, float, int]:
    """The list-scheduling replay: flat lists, integer indices, local names.

    Tasks run in plan start order on their planned resources, each once
    its resource is free and its inputs have arrived.  A failure while a
    resource idles is a harmless reboot (skipped and counted); one inside
    an attempt kills it, and the resource is down for ``repair_time``;
    ``migrate`` retries on the earliest-finishing feasible resource.
    ``mtbf=None`` is the makespan-only fast path, with no failure clock.
    Returns per-task ``start``/``finish``/``resource`` lists, then killed
    attempts, lost work and idle failures; ``killed`` receives
    ``(task, resource, start, failure, attempt)`` per killed attempt.
    """
    n_tasks = ctx.n_tasks
    order = ctx.order
    planned_res = ctx.planned_res
    preds = ctx.preds
    dur_table = ctx.dur
    plan_dur = ctx.plan_dur
    transfer = ctx.transfer
    feasible = ctx.feasible
    res_rank = ctx.res_rank
    exponential = rng.exponential

    factors = (
        rng.lognormal(mean=0.0, sigma=jitter, size=n_tasks).tolist()
        if jitter
        else None
    )
    clocked = mtbf is not None
    next_failure = (
        exponential(mtbf, size=ctx.n_resources).tolist() if clocked else None
    )
    resource_free = [0.0] * ctx.n_resources
    start_time = [0.0] * n_tasks
    fin_time = [0.0] * n_tasks
    fin_res = list(planned_res)
    n_failures = 0
    lost_work = 0.0
    idle_failures = 0

    for ti in order:
        res = planned_res[ti]
        task_preds = preds[ti]
        # The jitter-only path multiplies the *placement* duration, like
        # simulate_schedule; the failure replay recomputes work/speed
        # (equal up to float noise).
        durations = dur_table[ti]
        attempts = 0
        while True:
            if attempts >= max_attempts:
                raise ContinuumError(
                    f"task {ctx.schedule.workflow.task_keys[ti]!r} failed "
                    f"{attempts} times; "
                    f"mtbf={mtbf} is too small for its duration"
                )
            duration = plan_dur[ti] if not clocked else durations[res]
            if factors is not None:
                duration *= factors[ti]
            ready = 0.0
            for p in task_preds:
                arrival = fin_time[p] + transfer[p][fin_res[p]][res]
                if arrival > ready:
                    ready = arrival
            start = resource_free[res]
            if ready > start:
                start = ready
            if not clocked:
                finish = start + duration
                resource_free[res] = finish
                start_time[ti] = start
                fin_time[ti] = finish
                fin_res[ti] = res
                break
            # Idle failures are harmless reboots: skip any that elapsed
            # before the attempt starts.
            failure = next_failure[res]
            while failure < start:
                failure += float(exponential(mtbf))
                idle_failures += 1
            if failure >= start + duration:
                next_failure[res] = failure
                finish = start + duration
                resource_free[res] = finish
                start_time[ti] = start
                fin_time[ti] = finish
                fin_res[ti] = res
                break
            # The attempt dies at the failure instant.
            attempts += 1
            n_failures += 1
            lost_work += failure - start
            if killed is not None:
                killed.append((ti, res, start, failure, attempts))
            next_failure[res] = failure + float(exponential(mtbf))
            resource_free[res] = failure + repair_time
            if migrate:
                best: tuple[float, int] | None = None
                best_res = res
                for r in feasible[ti]:
                    retry_ready = 0.0
                    for p in task_preds:
                        arrival = fin_time[p] + transfer[p][fin_res[p]][r]
                        if arrival > retry_ready:
                            retry_ready = arrival
                    retry_start = resource_free[r]
                    if retry_ready > retry_start:
                        retry_start = retry_ready
                    candidate = (retry_start + durations[r], res_rank[r])
                    if best is None or candidate < best:
                        best = candidate
                        best_res = r
                res = best_res

    return start_time, fin_time, fin_res, n_failures, lost_work, idle_failures


def _summarize(
    ctx: SimulationContext,
    outcome: tuple[list[float], list[float], list[int], int, float, int],
) -> ReplicationResult:
    """One replay's figures of merit."""
    _, fin_time, fin_res, n_failures, lost_work, _ = outcome
    makespan = max(fin_time)
    return ReplicationResult(
        makespan=makespan,
        slowdown=makespan / ctx.planned_makespan,
        retries=n_failures,
        migrations=sum(map(ne, fin_res, ctx.planned_res)),
        lost_work=lost_work,
    )


# -- streaming aggregation ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """One metric's distribution over a grid cell's replications."""

    count: int
    mean: float
    std: float
    min: float
    max: float
    p50: float
    p90: float
    p99: float

    def to_dict(self) -> dict[str, float | int]:
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p90": self.p90,
            "p99": self.p99,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricSummary":
        return cls(
            count=int(payload["count"]),
            mean=float(payload["mean"]),
            std=float(payload["std"]),
            min=float(payload["min"]),
            max=float(payload["max"]),
            p50=float(payload["p50"]),
            p90=float(payload["p90"]),
            p99=float(payload["p99"]),
        )


class CellAggregate:
    """Streams one cell's replications into a :class:`RunningStat` per metric.

    Sketch merges are *exact*: partial aggregates from independent
    processes or hosts combine to the sketch state of one aggregate fed
    every replication.

    ``to_dict``/``from_dict`` round-trip the full state through JSON so
    a partial aggregate is shippable between hosts.
    """

    __slots__ = ("stats",)

    def __init__(self) -> None:
        self.stats = {name: RunningStat() for name in METRIC_NAMES}

    def add(self, values: tuple[float, float, int, int, float]) -> None:
        for name, value in zip(METRIC_NAMES, values):
            self.stats[name].add(value)

    def merge(self, other: "CellAggregate") -> "CellAggregate":
        """Fold another cell aggregate in (sketch merge is exact)."""
        for name in METRIC_NAMES:
            self.stats[name].merge(other.stats[name])
        return self

    def summaries(self) -> dict[str, MetricSummary]:
        out: dict[str, MetricSummary] = {}
        for name in METRIC_NAMES:
            stat = self.stats[name]
            out[name] = MetricSummary(
                count=stat.count,
                mean=stat.mean,
                std=stat.std,
                min=stat.min,
                max=stat.max,
                p50=stat.quantile(0.50),
                p90=stat.quantile(0.90),
                p99=stat.quantile(0.99),
            )
        return out

    def to_dict(self) -> dict[str, Any]:
        stats = {name: self.stats[name].to_dict() for name in METRIC_NAMES}
        return {"stats": stats}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellAggregate":
        aggregate = cls()
        try:
            aggregate.stats = {
                name: RunningStat.from_dict(payload["stats"][name])
                for name in METRIC_NAMES
            }
        except (KeyError, TypeError, StatsError) as exc:
            raise MonteCarloError(
                f"malformed cell aggregate payload: {exc}"
            ) from None
        return aggregate


# -- grid cells ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CellSpec:
    """One grid cell: a workflow × scheduler × failure/jitter condition."""

    workflow: str
    scheduler: str
    mtbf: float | None
    jitter: float
    policy: str

    @property
    def cell_id(self) -> str:
        mtbf = "none" if self.mtbf is None else f"{self.mtbf:g}"
        return (
            f"{self.workflow}|{self.scheduler}|mtbf={mtbf}"
            f"|jitter={self.jitter:g}|policy={self.policy}"
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "workflow": self.workflow,
            "scheduler": self.scheduler,
            "mtbf": self.mtbf,
            "jitter": self.jitter,
            "policy": self.policy,
        }


@dataclass(frozen=True, slots=True)
class CellStats:
    """Aggregated outcome of one grid cell."""

    cell: CellSpec
    replications: int
    planned_makespan: float
    metrics: dict[str, MetricSummary]

    def to_dict(self) -> dict[str, Any]:
        return {
            "cell": self.cell.to_dict(),
            "cell_id": self.cell.cell_id,
            "replications": self.replications,
            "planned_makespan": self.planned_makespan,
            "metrics": {
                name: summary.to_dict()
                for name, summary in self.metrics.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CellStats":
        cell = payload["cell"]
        return cls(
            cell=CellSpec(
                workflow=str(cell["workflow"]),
                scheduler=str(cell["scheduler"]),
                mtbf=None if cell["mtbf"] is None else float(cell["mtbf"]),
                jitter=float(cell["jitter"]),
                policy=str(cell["policy"]),
            ),
            replications=int(payload["replications"]),
            planned_makespan=float(payload["planned_makespan"]),
            metrics={
                str(name): MetricSummary.from_dict(summary)
                for name, summary in payload["metrics"].items()
            },
        )


# -- sweep specification --------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A full Monte-Carlo experiment grid.

    The grid is the cross product ``workflows × schedulers × mtbfs ×
    jitters × policies``.  Replication sizing has two modes:

    * **fixed** (``target_ci is None``, the default): every cell runs
      exactly ``replications`` seeded replications, and ``chunk_size``
      shapes the parallel fan-out only — it can never change results
      (see the module determinism contract).
    * **adaptive** (``target_ci`` set): every cell runs rounds of
      ``chunk_size`` replications until the 95% confidence half-width
      of its ``primary_metric`` mean is at most ``target_ci`` *relative
      to that mean* (``1.96·s/√n ≤ target_ci·|mean|``), capped at
      ``max_replications`` (default: ``replications``).  Stop checks
      happen at round boundaries, so in this mode ``chunk_size`` is part
      of a cell's identity (and cache key); results remain bit-identical
      across worker counts and queue orders.

    ``max_replications`` without ``target_ci`` is rejected — a fixed
    sweep sizes itself with ``replications`` alone.
    """

    workflows: tuple[Workflow, ...]
    continuum: Continuum
    schedulers: tuple[str, ...] = ("heft",)
    mtbfs: tuple[float | None, ...] = (None,)
    jitters: tuple[float, ...] = (0.0,)
    policies: tuple[str, ...] = ("restart",)
    repair_time: float = 1.0
    max_attempts: int = 50
    replications: int = 100
    seed: int = 0
    chunk_size: int = 64
    target_ci: float | None = None
    max_replications: int | None = None
    primary_metric: str = "makespan"

    def __post_init__(self) -> None:
        if not self.workflows:
            raise MonteCarloError("sweep needs at least one workflow")
        names = [w.name for w in self.workflows]
        if len(set(names)) != len(names):
            raise MonteCarloError("workflow names must be unique in a sweep")
        if not self.schedulers:
            raise MonteCarloError("sweep needs at least one scheduler")
        for name in self.schedulers:
            if name not in SCHEDULERS:
                raise MonteCarloError(
                    f"unknown scheduler {name!r}; "
                    f"choose from {sorted(SCHEDULERS)}"
                )
        if not self.mtbfs or not self.jitters or not self.policies:
            raise MonteCarloError("mtbfs, jitters, and policies must be non-empty")
        # Each axis is checked once, with the other axes at their first
        # value, so the cost is the sum of the axis lengths, not their
        # product.  A cell_id joins one label per axis, so per-axis
        # label uniqueness is cell_id uniqueness.
        base = CellSpec(names[0], self.schedulers[0], self.mtbfs[0],
                        self.jitters[0], self.policies[0])
        axes = [
            [replace(base, **{name: value}) for value in values]
            for name, values in (
                ("scheduler", self.schedulers), ("mtbf", self.mtbfs),
                ("jitter", self.jitters), ("policy", self.policies),
            )
        ]
        if any(len({cell.cell_id for cell in axis}) != len(axis)
               for axis in axes):
            raise MonteCarloError("grid axes must not repeat a value")
        check_request({"replications": self.replications, "seed": self.seed,
                       "max_replications": self.max_replications},
                      SPEC_PARAMS)
        if self.chunk_size < 1:
            raise MonteCarloError("chunk_size must be >= 1")
        if self.primary_metric not in METRIC_NAMES:
            raise MonteCarloError(
                f"unknown primary_metric {self.primary_metric!r}; "
                f"choose from {METRIC_NAMES}"
            )
        if self.target_ci is not None:
            if not (math.isfinite(self.target_ci) and self.target_ci > 0):
                raise MonteCarloError(
                    f"target_ci must be a finite value > 0, "
                    f"got {self.target_ci}"
                )
        if self.max_replications is not None:
            if self.target_ci is None:
                raise MonteCarloError(
                    "max_replications requires target_ci (a fixed sweep "
                    "sizes itself with replications)"
                )
        for axis in axes:
            for cell in axis:
                _validate_cell_params(
                    mtbf=cell.mtbf, repair_time=self.repair_time,
                    policy=cell.policy, jitter=cell.jitter,
                    max_attempts=self.max_attempts,
                )

    @property
    def adaptive(self) -> bool:
        """Whether this sweep sizes replications by sequential stopping."""
        return self.target_ci is not None

    @property
    def replication_cap(self) -> int:
        """Per-cell replication ceiling (fixed count in fixed mode)."""
        if self.adaptive and self.max_replications is not None:
            return self.max_replications
        return self.replications

    def replication_plan(self) -> dict[str, Any]:
        """The replication-sizing identity (part of every cell cache key)."""
        if not self.adaptive:
            return {"mode": "fixed", "replications": self.replications}
        return {
            "mode": "adaptive",
            "target_ci": self.target_ci,
            "max_replications": self.replication_cap,
            "round_size": self.chunk_size,
            "primary_metric": self.primary_metric,
        }

    def cells(self) -> tuple[CellSpec, ...]:
        """The grid cells in deterministic enumeration order."""
        return tuple(
            CellSpec(
                workflow=workflow.name, scheduler=scheduler,
                mtbf=mtbf, jitter=jitter, policy=policy,
            )
            for workflow in self.workflows
            for scheduler in self.schedulers
            for mtbf in self.mtbfs
            for jitter in self.jitters
            for policy in self.policies
        )


class SweepResult(SweepOutcome):
    """Outcome of :func:`run_sweep`: one :class:`CellStats` per grid cell
    (fields as in :class:`~repro.stats.rounds.SweepOutcome`)."""

    engine_version = ENGINE_VERSION


# -- request construction ---------------------------------------------------------


def parse_grid(text: str) -> dict[str, tuple]:
    """Parse a grid axis spec into :class:`SweepSpec` keyword values.

    The format is shared by ``repro sweep --grid`` and the serve layer's
    ``POST /sweeps`` body: ``"key=v1,v2;key=v1"`` with keys ``scheduler``
    (heft|energy|round_robin), ``mtbf`` (floats or ``none``), ``jitter``
    (floats), and ``policy`` (restart|migrate); omitted axes keep the
    single-cell defaults.

    >>> parse_grid("scheduler=heft,energy;mtbf=50")["schedulers"]
    ('heft', 'energy')
    """
    axes: dict[str, tuple] = {
        "schedulers": ("heft",),
        "mtbfs": (None,),
        "jitters": (0.0,),
        "policies": ("restart",),
    }
    plural = {
        "scheduler": "schedulers",
        "mtbf": "mtbfs",
        "jitter": "jitters",
        "policy": "policies",
    }
    for entry in filter(None, (part.strip() for part in text.split(";"))):
        key, sep, raw = entry.partition("=")
        key = key.strip().lower()
        if not sep or key not in plural:
            raise MonteCarloError(
                f"bad grid entry {entry!r}; expected "
                "scheduler=.../mtbf=.../jitter=.../policy=..."
            )
        values = [v.strip() for v in raw.split(",") if v.strip()]
        if not values:
            raise MonteCarloError(f"grid axis {key!r} has no values")
        if key in ("mtbf", "jitter"):
            try:
                axes[plural[key]] = tuple(
                    None if key == "mtbf" and v.lower() == "none" else float(v)
                    for v in values
                )
            except ValueError:
                raise MonteCarloError(
                    f"grid axis {key!r} needs numeric values, got {raw!r}"
                ) from None
        else:
            axes[plural[key]] = tuple(values)
    return axes


def build_sweep_spec(**request: Any) -> SweepSpec:
    """The canonical :class:`SweepSpec` for a sweep *request*, whose
    keywords are :data:`repro.sweep_params.SPEC_PARAMS`.

    Both front doors — ``repro sweep`` and the serve layer's
    ``POST /sweeps`` — build their spec through this one function, so an
    HTTP-submitted sweep is *bit-identical* (same fleet, same continuum,
    same per-cell entropy, hence the same cache keys and ledger record)
    to the CLI sweep with the same arguments.  ``target_ci`` switches
    the sweep to adaptive sequential stopping (``max_replications``
    caps it; default: ``replications``) — invalid requests raise
    :class:`~repro.errors.MonteCarloError` here, before any work runs.
    """
    from repro.continuum.resources import default_continuum
    from repro.data import synthetic_workflows

    request = check_request(request, SPEC_PARAMS)
    fleet, seed = request.pop("fleet"), request["seed"]
    return SweepSpec(
        workflows=synthetic_workflows(fleet, seed=seed),
        continuum=default_continuum(seed=seed),
        **parse_grid(request.pop("grid")), **request,
    )


# -- fingerprints and cache keys -------------------------------------------------


def _workflow_fingerprint(workflow: Workflow) -> str:
    from repro.continuum.serialize import workflow_to_dict
    from repro.pipeline.cache import stable_digest

    return stable_digest(workflow_to_dict(workflow))


def _continuum_fingerprint(continuum: Continuum) -> str:
    from repro.continuum.serialize import continuum_to_dict
    from repro.pipeline.cache import stable_digest

    return stable_digest(continuum_to_dict(continuum))


def _cell_identity(spec: SweepSpec, cell: CellSpec,
                   fingerprints: Mapping[str, str],
                   continuum_fp: str) -> dict[str, Any]:
    """Everything that pins a cell's random streams (not the rep count)."""
    return {
        "engine": ENGINE_VERSION,
        "seed": spec.seed,
        "workflow": fingerprints[cell.workflow],
        "continuum": continuum_fp,
        "scheduler": cell.scheduler,
        "mtbf": cell.mtbf,
        "jitter": cell.jitter,
        "policy": cell.policy,
        "repair_time": spec.repair_time,
        "max_attempts": spec.max_attempts,
    }


# -- worker protocol --------------------------------------------------------------


@dataclass(frozen=True)
class _CellTask:
    """One cell's work order, as shipped to (or run by) a worker."""

    schedule_index: int
    cell: CellSpec
    repair_time: float
    max_attempts: int
    entropy: int


# Worker-global state, set once per process by the pool initializer; the
# serial fallback uses the same two functions in-process.
_WORKER_SCHEDULES: list[Schedule] = []
_WORKER_TASKS: list[_CellTask] = []
_WORKER_CONTEXTS: dict[int, SimulationContext] = {}
# One CompiledProblem per workflow × continuum pairing.  The pool ships
# all schedules as one payload, so schedules of the same workflow
# unpickle sharing one Workflow/Continuum object and identity keys are
# stable within a worker.
_WORKER_PROBLEMS: dict[tuple[int, int], CompiledProblem] = {}


def _worker_init(schedules: list[Schedule], tasks: list[_CellTask]) -> None:
    global _WORKER_SCHEDULES, _WORKER_TASKS, _WORKER_CONTEXTS, _WORKER_PROBLEMS
    _WORKER_SCHEDULES = schedules
    _WORKER_TASKS = tasks
    _WORKER_CONTEXTS = {}
    _WORKER_PROBLEMS = {}


def _worker_chunk(
    args: tuple[int, int, int],
) -> list[tuple[float, float, int, int, float]]:
    """Run replications [start, start+count) of one cell task.

    Returns raw metric tuples in replication order; every replication
    owns a spawned generator, so execution placement is irrelevant.
    """
    task_index, start, count = args
    task = _WORKER_TASKS[task_index]
    context = _WORKER_CONTEXTS.get(task.schedule_index)
    if context is None:
        schedule = _WORKER_SCHEDULES[task.schedule_index]
        pairing = (id(schedule.workflow), id(schedule.continuum))
        problem = _WORKER_PROBLEMS.get(pairing)
        if problem is None:
            problem = compile_problem(schedule.workflow, schedule.continuum)
            _WORKER_PROBLEMS[pairing] = problem
        context = SimulationContext(schedule, problem)
        _WORKER_CONTEXTS[task.schedule_index] = context
    cell = task.cell
    migrate = cell.policy == "migrate"
    return [
        _summarize(context, _replicate(
            context, cell.mtbf, task.repair_time, migrate, cell.jitter,
            task.max_attempts, round_rng(task.entropy, rep),
        )).as_tuple()
        for rep in range(start, start + count)
    ]




# -- the sweep driver --------------------------------------------------------------


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int = 0,
    cache=None,
    telemetry=None,
    registry=None,
    steal_seed: int | None = None,
) -> SweepResult:
    """Run the full Monte-Carlo grid of *spec*.

    Parameters
    ----------
    spec:
        The experiment grid (see :class:`SweepSpec`).
    workers:
        Process-pool size for the replication fan-out.  ``0`` or ``1``
        runs the deterministic serial path in-process; results are
        bit-identical either way.
    cache:
        Optional :class:`~repro.pipeline.cache.ArtifactCache`.  Grid
        cells are content-addressed (engine version, seed, workflow and
        continuum fingerprints, cell condition, replication plan): a hit
        skips every simulation of that cell.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; when bound the
        sweep is traced (``sweep`` span with per-scheduler ``schedule.*``
        child spans), counted (``mc.replications``, ``mc.rounds``,
        ``mc.replications_saved``, ``mc.cells_computed``,
        ``mc.cells_cached``), and logged (``sweep.finish``).
    registry:
        Optional :class:`~repro.obs.RunRegistry`; when given, the sweep
        appends a ``mc-sweep`` :class:`~repro.obs.RunRecord` (cell
        digests, replication counters) to the run ledger.
    steal_seed:
        Optional seed that *shuffles* the order rounds are taken off the
        shared work queue — a chaos knob for exercising the determinism
        contract (results are bit-identical for any value, which the
        test suite asserts), never needed for normal runs.

    Returns
    -------
    SweepResult
        Per-cell streaming statistics plus the computed/cached split.
    """
    from repro.pipeline.cache import stable_digest

    if workers < 0:
        raise MonteCarloError("workers must be >= 0")
    fingerprints = {w.name: _workflow_fingerprint(w) for w in spec.workflows}
    continuum_fp = _continuum_fingerprint(spec.continuum)
    # The cache key pairs the cell's stream identity with the replication
    # *plan*: a fixed count, or the adaptive stopping rule (whose round
    # size shapes where stop checks happen, hence the result).
    plan = spec.replication_plan()
    units = []
    for cell in spec.cells():
        identity = _cell_identity(spec, cell, fingerprints, continuum_fp)
        key = stable_digest("montecarlo-cell", identity, plan)
        units.append(Unit(cell.cell_id, key, identity, cell))
    meta: dict[str, Any] = {"seed": spec.seed,
                            "replications": spec.replications,
                            "workers": workers}
    if spec.adaptive:
        meta["target_ci"] = spec.target_ci
        meta["max_replications"] = spec.replication_cap
        meta["primary_metric"] = spec.primary_metric
    return run_rounds(
        _SweepRounds(spec), units,
        cap=spec.replication_cap, round_size=spec.chunk_size,
        adaptive=spec.adaptive, meta=meta, cache=cache,
        telemetry=telemetry, registry=registry, workers=workers,
        steal_seed=steal_seed,
    )


class _SweepRounds(Rounds):
    """Grid cells on the round engine: a round is ``chunk_size``
    replications, folded into the cell's :class:`CellAggregate`."""

    span, prefix, units, draws = "sweep", "mc", "cells", "replications"
    result = SweepResult

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec

    def decode(self, unit: Unit, payload: Mapping[str, Any]) -> CellStats:
        return CellStats.from_dict(payload)

    def prepare(self, misses: list[Unit], telemetry):
        # Schedule once per (workflow, scheduler) pair actually needed;
        # compile each workflow × continuum pairing exactly once and
        # share it across every scheduler placing on it.
        spec = self.spec
        workflow_of = {w.name: w for w in spec.workflows}
        self.schedules = schedules = []
        schedule_index: dict[tuple[str, str], int] = {}
        problems: dict[str, CompiledProblem] = {}
        self.tasks: list[_CellTask] = []
        for unit in misses:
            cell = unit.spec
            pair = (cell.workflow, cell.scheduler)
            if pair not in schedule_index:
                workflow = workflow_of[cell.workflow]
                if cell.workflow not in problems:
                    problems[cell.workflow] = compile_problem(
                        workflow, spec.continuum
                    )
                schedule_index[pair] = len(schedules)
                schedules.append(SCHEDULERS[cell.scheduler]().schedule(
                    workflow, spec.continuum,
                    telemetry=telemetry if telemetry.enabled else None,
                    problem=problems[cell.workflow],
                ))
            self.tasks.append(_CellTask(
                schedule_index[pair], cell, spec.repair_time,
                spec.max_attempts, unit.entropy,
            ))
        self.aggregates = [CellAggregate() for _ in misses]
        return _worker_chunk, _worker_init, (schedules, self.tasks)

    def fold(self, index: int, values) -> None:
        aggregate = self.aggregates[index]
        for row in values:
            aggregate.add(row)

    def stop(self, index: int, folded: int) -> bool:
        return _stop_met(self.spec, self.aggregates[index])

    def finish(self, index: int, folded: int) -> CellStats:
        task = self.tasks[index]
        return CellStats(
            cell=task.cell,
            replications=folded,
            planned_makespan=self.schedules[task.schedule_index].makespan,
            metrics=self.aggregates[index].summaries(),
        )


def _stop_met(spec: SweepSpec, aggregate: CellAggregate) -> bool:
    """The sequential-stopping rule, checked at round boundaries only.

    Stop once the normal-approximation 95% confidence half-width of the
    primary metric's mean is within ``target_ci`` of the mean's
    magnitude.  A zero-variance cell (e.g. no failures, no jitter) stops
    after its first round; a zero-mean cell stops only when its variance
    is also zero, since no relative precision is otherwise attainable
    before the cap.
    """
    stat = aggregate.stats[spec.primary_metric]
    if stat.count < 2:
        return False
    half_width = Z_95 * stat.std / math.sqrt(stat.count)
    return half_width <= spec.target_ci * abs(stat.mean)
