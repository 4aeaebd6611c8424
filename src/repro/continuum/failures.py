"""Failure injection: executing plans on unreliable resources.

The paper's discussion (Sec. 4) flags *fault tolerance* as a direction the
surveyed ecosystem does not yet cover.  This module supplies the substrate
to study it: a schedule is replayed on resources that fail according to
seeded exponential (Poisson-process) inter-failure times; a failure kills
the running task's attempt (its work is lost) and takes the resource down
for a repair interval.  Two recovery policies:

* ``"restart"`` — re-run the attempt on the same resource once repaired;
* ``"migrate"`` — move the task to the feasible resource that can finish
  it earliest (checkpoint-free migration: the attempt restarts from zero).

The replay is a *list-scheduling replay*: tasks run in the plan's start
order (which must be topological), each starting as soon as its inputs
have arrived and its resource is free — the plan fixes the task→resource
mapping, reality fixes the timing.  Returned metrics quantify the
fault-tolerance cost: failure count, retries, lost work, and makespan
inflation.

:func:`simulate_with_failures` is a thin wrapper around the one replay
kernel, :func:`repro.continuum.montecarlo._replicate`, which the
Monte-Carlo engine runs thousands of times per grid cell; one call here
is bit-identical to one replication there with the same generator and no
jitter.  The one-shot call builds no dense ``task × resource`` or
``task × src × dst`` tables: its context computes each duration and
transfer time when the replay reads it, with the same IEEE operations.
Its parity oracle, a string-keyed replay, is in ``tests/oracles.py``.

Passing ``telemetry=`` traces the replay (``simulate_failures`` span),
logs every killed attempt (``sim.failure``), and mirrors the cost into
the ``sim.failures_injected`` (idle reboots plus killed attempts) /
``sim.retries`` / ``sim.migrations`` / ``sim.events`` (tasks plus killed
attempts) counters that :func:`repro.obs.build_simulation_record` lifts
into the run ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.continuum.compile import compile_problem
from repro.continuum.montecarlo import SimulationContext, _replicate, _summarize
from repro.continuum.scheduling import Schedule, TaskPlacement
from repro.errors import ContinuumError
from repro.telemetry import ensure

__all__ = ["FailureTrace", "simulate_with_failures"]


@dataclass(frozen=True, slots=True)
class FailureTrace:
    """Outcome of executing a schedule under failures.

    Attributes
    ----------
    placements:
        Final successful attempt of every task.
    makespan:
        Realized completion time.
    planned_makespan:
        The failure-free plan's makespan.
    n_failures:
        Attempts killed by resource failures.
    n_migrations:
        Tasks that ended up on a different resource than planned.
    lost_work:
        Total seconds of execution destroyed by failures.
    """

    placements: tuple[TaskPlacement, ...]
    makespan: float
    planned_makespan: float
    n_failures: int
    n_migrations: int
    lost_work: float

    @property
    def slowdown(self) -> float:
        return self.makespan / self.planned_makespan


def simulate_with_failures(
    schedule: Schedule,
    *,
    mtbf: float,
    repair_time: float,
    policy: str = "restart",
    seed: int | None = None,
    rng: np.random.Generator | None = None,
    max_attempts: int = 50,
    telemetry=None,
) -> FailureTrace:
    """Replay *schedule* with exponential failures of rate ``1/mtbf``.

    Parameters
    ----------
    schedule:
        The plan (fixes the task→resource mapping and task order); a plan
        whose start order is not topological raises
        :class:`ContinuumError`.
    mtbf:
        Mean time between failures per resource, in simulated seconds.
    repair_time:
        Downtime after each failure.
    policy:
        ``"restart"`` or ``"migrate"`` (see module docstring).
    seed:
        Seeds both the failure process and migration tie-breaks.
    rng:
        Pre-built generator, as an alternative to *seed* (at most one of
        the two) — lets batch drivers like
        :mod:`repro.continuum.montecarlo` hand in per-replication
        spawned streams.
    max_attempts:
        Abort with :class:`ContinuumError` if one task fails this often —
        guards against ``mtbf`` far below task durations.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound the replay
        is traced (``simulate_failures`` span), every killed attempt is
        logged (``sim.failure``), and the counters
        ``sim.failures_injected`` (failures fired, harmless idle reboots
        included), ``sim.retries`` (attempts killed mid-execution),
        ``sim.migrations``, ``sim.events`` (attempts started) and
        ``sim.tasks`` feed the run-ledger metrics snapshot.
    """
    if mtbf <= 0:
        raise ContinuumError("mtbf must be > 0")
    if repair_time < 0:
        raise ContinuumError("repair_time must be >= 0")
    if policy not in ("restart", "migrate"):
        raise ContinuumError(f"unknown policy {policy!r}")
    if max_attempts < 1:
        raise ContinuumError("max_attempts must be >= 1")
    if rng is not None and seed is not None:
        raise ContinuumError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)

    tel = ensure(telemetry)
    if not tel.enabled:
        return _failure_trace(
            schedule, mtbf, repair_time, policy, rng, max_attempts, tel
        )[0]
    with tel.tracer.span(
        "simulate_failures",
        policy=policy,
        mtbf=mtbf,
        tasks=len(schedule.workflow),
    ) as span:
        trace, idle_failures = _failure_trace(
            schedule, mtbf, repair_time, policy, rng, max_attempts, tel
        )
        injected = idle_failures + trace.n_failures
        events = len(trace.placements) + trace.n_failures
        span.tags.update(
            makespan=trace.makespan,
            failures=trace.n_failures,
            migrations=trace.n_migrations,
        )
        metrics = tel.metrics
        metrics.counter("sim.failures_injected").inc(injected)
        metrics.counter("sim.retries").inc(trace.n_failures)
        metrics.counter("sim.migrations").inc(trace.n_migrations)
        metrics.counter("sim.events").inc(events)
        metrics.counter("sim.tasks").inc(len(trace.placements))
        tel.log.info(
            "sim.finish",
            tasks=len(trace.placements),
            events=events,
            failures_injected=injected,
            retries=trace.n_failures,
            migrations=trace.n_migrations,
            makespan=trace.makespan,
            slowdown=trace.slowdown,
            lost_work=trace.lost_work,
        )
    return trace


def _failure_trace(
    schedule: Schedule,
    mtbf: float,
    repair_time: float,
    policy: str,
    rng: np.random.Generator,
    max_attempts: int,
    tel,
) -> tuple[FailureTrace, int]:
    """One kernel replay lifted to a trace, plus the idle failures it
    skipped; logs every killed attempt when *tel* is enabled."""
    problem = compile_problem(schedule.workflow, schedule.continuum)
    context = SimulationContext._one_shot(schedule, problem)
    killed = [] if tel.enabled else None
    outcome = _replicate(
        context, mtbf, repair_time, policy == "migrate", 0.0, max_attempts,
        rng, killed,
    )
    task_keys, res_keys = problem.cw.keys, problem.cc.keys
    for task, res, start, failure, attempt in killed or ():
        tel.log.debug(
            "sim.failure",
            task=task_keys[task],
            resource=res_keys[res],
            at=failure,
            lost=failure - start,
            attempt=attempt,
            policy=policy,
        )
    summary = _summarize(context, outcome)
    start, finish, resource, _, _, idle_failures = outcome
    placements = map(
        TaskPlacement, task_keys, [res_keys[r] for r in resource], start, finish
    )
    trace = FailureTrace(
        placements=tuple(sorted(placements, key=lambda p: (p.start, p.task))),
        makespan=summary.makespan,
        planned_makespan=schedule.makespan,
        n_failures=summary.retries,
        n_migrations=summary.migrations,
        lost_work=summary.lost_work,
    )
    return trace, idle_failures
