"""Workflow scheduling on the Computing Continuum.

Implements the scheduling layer the paper's orchestration tools motivate:

* :class:`HeftScheduler` — the classic Heterogeneous Earliest Finish Time
  list scheduler (Topcuoglu et al. 2002): upward ranks computed in one
  backward pass with vectorized mean costs, then insertion-based earliest-
  finish placement.
* :class:`EnergyAwareScheduler` — greedy energy-aware placement (the PESOS
  idea transplanted to workflows): minimize marginal energy, with a
  configurable makespan-degradation bound.
* :class:`RoundRobinScheduler` — the naive baseline.

All schedulers honour task requirements versus resource capabilities and
return a :class:`Schedule` with per-task timing and the three figures of
merit: makespan, energy, and carbon.

``schedule()`` runs on the compiled core (:mod:`repro.continuum.compile`):
task/resource keys are lowered to integer ids once and every hot placement
quantity — ready times, durations, marginal energies — is an array
expression, which is what lets 10k-task × 1k-resource fleets schedule in
seconds.  The original pure-Python implementations live on only as test
oracles (``tests/oracles.py``); the compiled paths are
**bit-identical** to them — same placements, same starts/finishes, same
tie-breaks — asserted across a workflow × fleet grid by
``tests/test_compile.py`` and speed-gated by
``benchmarks/test_bench_scheduling.py``.

Every ``schedule()`` accepts an optional ``telemetry=`` keyword: when
bound, the placement runs inside a ``schedule.<name>`` span and emits a
``schedule.finish`` log event (scheduler, task count, makespan).  The
default is the shared zero-overhead null telemetry.  An optional
``problem=`` keyword accepts a precompiled
:class:`~repro.continuum.compile.CompiledProblem` so callers placing the
same workflow × continuum pairing repeatedly (sweeps, benchmarks) pay the
compilation exactly once.
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.continuum.compile import (
    CompiledProblem,
    compile_problem,
    energy_placements,
    heft_placements,
    round_robin_placements,
    upward_rank_array,
)
from repro.continuum.resources import Continuum
from repro.continuum.workflow import Workflow
from repro.errors import SchedulingError
from repro.telemetry import ensure

__all__ = [
    "TaskPlacement",
    "Schedule",
    "HeftScheduler",
    "EnergyAwareScheduler",
    "RoundRobinScheduler",
]


@dataclass(frozen=True, slots=True)
class TaskPlacement:
    """Where and when one task runs."""

    task: str
    resource: str
    start: float
    finish: float

    @property
    def duration(self) -> float:
        return self.finish - self.start


class Schedule:
    """A complete placement of a workflow on a continuum."""

    def __init__(
        self,
        workflow: Workflow,
        continuum: Continuum,
        placements: Mapping[str, TaskPlacement],
    ) -> None:
        missing = set(workflow.task_keys) - set(placements)
        if missing:
            raise SchedulingError(f"unplaced tasks: {sorted(missing)}")
        extra = set(placements) - set(workflow.task_keys)
        if extra:
            raise SchedulingError(f"placements for unknown tasks: {sorted(extra)}")
        self.workflow = workflow
        self.continuum = continuum
        self._placements = dict(placements)
        # The placement map is frozen after construction, so the sorted
        # view and the makespan are computed once on first access —
        # validate(), the tracing wrapper, and the simulator all hit them
        # repeatedly on the same schedule.
        self._sorted_placements: tuple[TaskPlacement, ...] | None = None
        self._makespan: float | None = None

    def __getitem__(self, task: str) -> TaskPlacement:
        try:
            return self._placements[task]
        except KeyError:
            raise SchedulingError(f"no placement for task {task!r}") from None

    @property
    def placements(self) -> tuple[TaskPlacement, ...]:
        """All placements, ordered by start time (stable on ties); cached."""
        if self._sorted_placements is None:
            self._sorted_placements = tuple(
                sorted(self._placements.values(), key=lambda p: (p.start, p.task))
            )
        return self._sorted_placements

    @property
    def makespan(self) -> float:
        """Completion time of the last task; cached."""
        if self._makespan is None:
            self._makespan = max(p.finish for p in self._placements.values())
        return self._makespan

    def busy_energy(self) -> float:
        """Joules consumed executing tasks (busy power × duration)."""
        total = 0.0
        for placement in self._placements.values():
            resource = self.continuum[placement.resource]
            total += resource.busy_power * placement.duration
        return total

    def total_energy(self) -> float:
        """Busy energy plus idle energy of every node over the makespan.

        Idle draw applies to each node for the whole makespan minus its own
        busy time — the platform-level view PESOS-style consolidation cares
        about (idle nodes still burn power unless switched off).
        """
        makespan = self.makespan
        busy_time = {key: 0.0 for key in self.continuum.keys}
        for placement in self._placements.values():
            busy_time[placement.resource] += placement.duration
        total = self.busy_energy()
        for resource in self.continuum:
            idle = max(0.0, makespan - busy_time[resource.key])
            total += resource.idle_power * idle
        return total

    def carbon(self) -> float:
        """Busy energy weighted by each node's carbon intensity."""
        total = 0.0
        for placement in self._placements.values():
            resource = self.continuum[placement.resource]
            total += (
                resource.busy_power
                * placement.duration
                * resource.carbon_intensity
            )
        return total

    def validate(self, *, problem: CompiledProblem | None = None) -> None:
        """Check dependency and exclusivity invariants.

        * every task starts at or after every predecessor's finish (plus
          the required transfer time);
        * no two tasks overlap on the same resource.

        Raises :class:`SchedulingError` on the first violation a loop
        would meet: per task (insertion order) its timing, then its
        inputs' arrivals (predecessor order); then overlaps, per resource
        in order of first appearance in the placement map.

        The checks run as three array expressions (per-task timing, one
        gather over all edges, consecutive-slot comparison per resource).
        ``problem`` optionally supplies a precompiled
        :class:`~repro.continuum.compile.CompiledProblem` to skip
        rebuilding the id maps and adjacency.
        """
        eps = 1e-9
        if problem is None:
            problem = compile_problem(self.workflow, self.continuum)
        cw, cc = problem.cw, problem.cc

        n = cw.n_tasks
        start = np.empty(n, dtype=np.float64)
        finish = np.empty(n, dtype=np.float64)
        res = np.empty(n, dtype=np.intp)
        placements = self._placements
        rindex = cc.index
        for i, key in enumerate(cw.keys):
            p = placements[key]
            start[i] = p.start
            finish[i] = p.finish
            res[i] = rindex[p.resource]

        bad_timing = (start < -eps) | (finish < start - eps)
        first_bad = int(bad_timing.argmax()) if bad_timing.any() else n
        if cw.pred_ids.size:
            # One gather over every (pred, task) edge, task by task:
            # arrival is pred_finish + latency + size / bandwidth,
            # IEEE-identical to Continuum.transfer_time.
            dst = np.repeat(
                np.arange(n, dtype=np.intp), np.diff(cw.pred_indptr)
            )
            src = cw.pred_ids
            arrival = finish[src] + (
                cc.latency[res[src], res[dst]]
                + cw.output_size[src] / cc.bandwidth[res[src], res[dst]]
            )
            late = start[dst] + eps < arrival
            if late.any():
                edge = int(late.argmax())
                if dst[edge] < first_bad:
                    raise SchedulingError(
                        f"task {cw.keys[dst[edge]]!r} starts before data "
                        f"from {cw.keys[src[edge]]!r} arrives"
                    )
        if first_bad < n:
            raise SchedulingError(f"task {cw.keys[first_bad]!r} has invalid timing")
        if n > 1:
            # Per-resource consecutive-slot check: a stable sort by
            # (resource, start) keeps placement-map order on ties.
            vals = list(placements.values())
            v_start = np.asarray([p.start for p in vals])
            v_finish = np.asarray([p.finish for p in vals])
            v_res = np.asarray([rindex[p.resource] for p in vals])
            order = np.lexsort((v_start, v_res))
            s_res = v_res[order]
            overlap = (v_start[order][1:] + eps < v_finish[order][:-1]) & (
                s_res[1:] == s_res[:-1]
            )
            if overlap.any():
                # The first overlap of the resource seen first in the map.
                pairs = np.flatnonzero(overlap)
                first_seen = np.full(cc.n_resources, len(vals))
                np.minimum.at(first_seen, v_res, np.arange(len(vals)))
                k = int(pairs[first_seen[s_res[pairs]].argmin()])
                a, b = vals[order[k]], vals[order[k + 1]]
                raise SchedulingError(
                    f"tasks {a.task!r} and {b.task!r} overlap on {a.resource!r}"
                )


def _traced_schedule(name: str):
    """Wrap a ``schedule()`` method with optional telemetry.

    The wrapped method grows a keyword-only ``telemetry=`` parameter.
    ``None`` (the default) resolves to the null telemetry and takes the
    undecorated fast path; a real :class:`~repro.telemetry.Telemetry`
    traces the placement as a ``schedule.<name>`` span and logs a
    ``schedule.finish`` event.  Other keywords (``problem=``) pass
    through to the wrapped method.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(self, workflow, continuum, *, telemetry=None, **kwargs):
            tel = ensure(telemetry)
            if not tel.enabled:
                return fn(self, workflow, continuum, **kwargs)
            with tel.tracer.span(f"schedule.{name}", tasks=len(workflow)) as span:
                schedule = fn(self, workflow, continuum, **kwargs)
                span.tags.update(makespan=schedule.makespan)
                tel.log.info(
                    "schedule.finish",
                    scheduler=name,
                    tasks=len(workflow),
                    makespan=schedule.makespan,
                )
                return schedule

        return wrapper

    return decorate


def _build_schedule(
    problem: CompiledProblem,
    res_of: np.ndarray,
    start_of: np.ndarray,
    fin_of: np.ndarray,
) -> Schedule:
    """Lift kernel id/time arrays into a validated :class:`Schedule`."""
    cw = problem.cw
    res_keys = problem.cc.keys
    starts = start_of.tolist()
    finishes = fin_of.tolist()
    resources = res_of.tolist()
    placements = {
        key: TaskPlacement(key, res_keys[resources[i]], starts[i], finishes[i])
        for i, key in enumerate(cw.keys)
    }
    schedule = Schedule(problem.workflow, problem.continuum, placements)
    schedule.validate(problem=problem)
    return schedule


class HeftScheduler:
    """Heterogeneous Earliest Finish Time list scheduling."""

    def __init__(self, *, insertion: bool = True) -> None:
        self.insertion = insertion

    def upward_ranks(
        self, workflow: Workflow, continuum: Continuum
    ) -> dict[str, float]:
        """HEFT upward ranks: mean execution + max over successors of
        (mean communication + successor rank), computed in one vectorized
        backward sweep (bit-identical to the per-task reference loop)."""
        problem = compile_problem(workflow, continuum)
        ranks = upward_rank_array(problem)
        return dict(zip(problem.cw.keys, ranks.tolist()))

    @_traced_schedule("heft")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = heft_placements(
            problem, insertion=self.insertion
        )
        return _build_schedule(problem, res_of, start_of, fin_of)


class EnergyAwareScheduler:
    """Greedy energy-aware placement with a bounded makespan penalty.

    For each task (in HEFT priority order) the scheduler picks the feasible
    resource minimizing marginal busy energy, among candidates whose finish
    time is within ``slack`` × the best achievable finish for that task.
    ``slack=1.0`` degenerates to HEFT; larger values trade makespan for
    energy — the knob the ablation benchmark sweeps.
    """

    def __init__(self, *, slack: float = 2.0) -> None:
        if slack < 1.0:
            raise SchedulingError(f"slack must be >= 1.0, got {slack}")
        self.slack = slack

    @_traced_schedule("energy")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = energy_placements(problem, slack=self.slack)
        return _build_schedule(problem, res_of, start_of, fin_of)


class RoundRobinScheduler:
    """Naive baseline: tasks in topological order, resources in rotation.

    Skips resources that do not satisfy a task's requirements (still
    rotating), and starts each task as early as dependencies and the
    resource timeline allow.
    """

    @_traced_schedule("round_robin")
    def schedule(
        self,
        workflow: Workflow,
        continuum: Continuum,
        *,
        problem: CompiledProblem | None = None,
    ) -> Schedule:
        """Place every task; returns a validated :class:`Schedule`."""
        if problem is None:
            problem = compile_problem(workflow, continuum)
        res_of, start_of, fin_of = round_robin_placements(problem)
        return _build_schedule(problem, res_of, start_of, fin_of)
