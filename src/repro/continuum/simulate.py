"""Execution of scheduled workflows under duration jitter.

A :class:`Schedule` is a *plan*; the simulator *executes* it under runtime
conditions the plan did not foresee — per-task speed jitter — and reports
what actually happened.  This is the standard way to stress a static
scheduler (plans built from nominal speeds meet a noisy reality) and backs
the robustness benchmark.

:func:`simulate_schedule` runs the package's one list-scheduling replay,
:func:`repro.continuum.montecarlo._replicate`, with no failure clock:
tasks run in the plan's start order (which must be topological) on their
planned resources, each as soon as its resource is free and its inputs
have arrived.  Each task's *placement* duration is multiplied by a
lognormal factor; the factors are one batched ``rng.lognormal`` draw,
which NumPy's Generator consumes exactly like per-task scalar draws.
Like :func:`~repro.continuum.failures.simulate_with_failures`, the call
binds a one-shot context that builds no dense tables.  ``busy_energy`` is
summed with :func:`math.fsum`, which is exactly rounded, so the total
does not depend on the order the tasks ran in.  Its parity oracle, an
object-keyed event loop, is in ``tests/oracles.py``.

Passing ``telemetry=`` wraps the run in a ``simulate`` span, counts
``sim.events`` (tasks plus killed attempts) and ``sim.tasks``, and emits
a ``sim.finish`` log event — the metrics snapshot
:func:`repro.obs.build_simulation_record` lifts into the run ledger.  No
attempt is killed here, so ``sim.events`` equals the task count.  The
default (``None``) is the zero-overhead null telemetry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.continuum.compile import CompiledProblem, compile_problem
from repro.continuum.montecarlo import (
    SimulationContext,
    _placements,
    _replicate,
    _validate_cell_params,
)
from repro.continuum.scheduling import Schedule, TaskPlacement
from repro.errors import ContinuumError
from repro.telemetry import ensure

__all__ = ["ExecutionTrace", "simulate_schedule"]


@dataclass(frozen=True, slots=True)
class ExecutionTrace:
    """What actually happened when a schedule was executed.

    Attributes
    ----------
    placements:
        Realized per-task timing (same resources as the plan, shifted
        times).
    makespan:
        Realized completion time.
    planned_makespan:
        The schedule's nominal makespan.
    slowdown:
        ``makespan / planned_makespan``.
    busy_energy:
        Realized busy energy in joules.
    """

    placements: tuple[TaskPlacement, ...]
    makespan: float
    planned_makespan: float
    busy_energy: float

    @property
    def slowdown(self) -> float:
        return self.makespan / self.planned_makespan


def simulate_schedule(
    schedule: Schedule,
    *,
    jitter: float = 0.0,
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    telemetry=None,
    problem: CompiledProblem | None = None,
) -> ExecutionTrace:
    """Replay *schedule* with multiplicative duration jitter.

    Parameters
    ----------
    schedule:
        The plan to execute (placements fix the task→resource mapping and
        the task order); a plan whose start order is not topological
        raises :class:`ContinuumError`.
    jitter:
        Each task's nominal duration is multiplied by a lognormal factor
        with sigma=*jitter*, a finite value >= 0 (0 reproduces the plan
        exactly, up to float noise).
    seed, rng:
        Randomness control (provide one, not both).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound the run is
        traced (``simulate`` span), counted (``sim.events``, tasks plus
        killed attempts, and ``sim.tasks``) and logged (``sim.finish``).
    problem:
        Optional precompiled :class:`~repro.continuum.compile.CompiledProblem`
        for the schedule's workflow × continuum pairing, so repeated
        executions of plans on the same pairing skip recompilation.

    Returns
    -------
    ExecutionTrace
        Realized timings, makespan, and energy.
    """
    _validate_cell_params(jitter=jitter)
    if rng is not None and seed is not None:
        raise ContinuumError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    tel = ensure(telemetry)
    if not tel.enabled:
        return _execution_trace(schedule, jitter, rng, problem)
    with tel.tracer.span(
        "simulate", tasks=len(schedule.workflow), jitter=jitter
    ) as span:
        trace = _execution_trace(schedule, jitter, rng, problem)
        tasks = len(trace.placements)  # no killed attempts: events == tasks
        span.tags.update(makespan=trace.makespan, events=tasks)
        tel.metrics.counter("sim.events").inc(tasks)
        tel.metrics.counter("sim.tasks").inc(tasks)
        tel.log.info(
            "sim.finish",
            tasks=tasks,
            events=tasks,
            makespan=trace.makespan,
            slowdown=trace.slowdown,
        )
    return trace


def _execution_trace(
    schedule: Schedule,
    jitter: float,
    rng: np.random.Generator,
    problem: CompiledProblem | None,
) -> ExecutionTrace:
    """One failure-free kernel replay lifted to a trace."""
    if problem is None:
        problem = compile_problem(schedule.workflow, schedule.continuum)
    context = SimulationContext._one_shot(schedule, problem)
    outcome = _replicate(context, None, 0.0, False, jitter, 1, rng)
    start, finish, resource = outcome[:3]
    busy_power = problem.cc.busy_power.tolist()
    return ExecutionTrace(
        placements=_placements(problem, outcome),
        makespan=max(finish),
        planned_makespan=schedule.makespan,
        busy_energy=math.fsum(
            busy_power[res] * (end - begin)
            for begin, end, res in zip(start, finish, resource)
        ),
    )
