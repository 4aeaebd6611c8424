"""Discrete-event execution of scheduled workflows.

A :class:`Schedule` is a *plan*; the simulator *executes* it under runtime
conditions the plan did not foresee — per-task speed jitter and transient
resource slowdowns — and reports what actually happened.  This is the
standard way to stress a static scheduler (plans built from nominal speeds
meet a noisy reality) and backs the robustness benchmark.

The engine is a classic event-driven simulator: a heap of task-completion
events, tasks becoming ready when all inputs have arrived, resources
processing one task at a time in plan order.  The event loop runs on
integer ids from the compiled problem (:mod:`repro.continuum.compile`):
per-edge transfer times are one vectorized gather from the latency /
bandwidth tables (IEEE-identical to ``Continuum.transfer_time``), and the
per-task jitter factors are a single batched ``rng.lognormal`` draw —
bit-identical to the former per-task scalar draws, since NumPy's
Generator consumes the stream identically either way.  Its parity
oracle, an object-keyed event loop, is in ``tests/oracles.py``.

This event loop is not the list-scheduling replay kernel
(:func:`repro.continuum.montecarlo._replicate`) that
``simulate_with_failures`` and the Monte-Carlo engine share, because
``busy_energy`` is summed in *realized* start order, which only the event
loop produces.  Over the scheduler-parity grid of ``tests/test_compile.py``
(612 runs: 17 pairings × 3 schedulers × jitter 0–0.7 × 3 seeds) a
plan-order replay reproduces every placement bit for bit, but its energy
sum differs in the last bits in 105 runs, all six ``TestSimulatorParity``
cases among them.  The kernel's ``mtbf=None`` branch stays the
makespan-only fast path of jitter-only Monte-Carlo cells.

Passing ``telemetry=`` wraps the run in a ``simulate`` span, counts
``sim.events`` / ``sim.tasks``, and emits a ``sim.finish`` log event —
the metrics snapshot :func:`repro.obs.build_simulation_record` lifts
into the run ledger.  The default (``None``) is the zero-overhead null
telemetry; event-loop bookkeeping stays local either way and is flushed
once at the end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.continuum.compile import CompiledProblem, compile_problem
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
    """Execute *schedule* event-by-event with multiplicative duration jitter.

    Parameters
    ----------
    schedule:
        The plan to execute (placements fix the task→resource mapping and
        the per-resource task order).
    jitter:
        Each task's nominal duration is multiplied by a lognormal factor
        with sigma=*jitter* (0 reproduces the plan exactly, up to float
        noise).
    seed, rng:
        Randomness control (provide one, not both).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry`; when bound the run is
        traced (``simulate`` span), counted (``sim.events``, ``sim.tasks``)
        and logged (``sim.finish``).
    problem:
        Optional precompiled :class:`~repro.continuum.compile.CompiledProblem`
        for the schedule's workflow × continuum pairing, so repeated
        executions of plans on the same pairing skip recompilation.

    Returns
    -------
    ExecutionTrace
        Realized timings, makespan, and energy.
    """
    if jitter < 0:
        raise ContinuumError("jitter must be >= 0")
    if rng is not None and seed is not None:
        raise ContinuumError("provide either seed or rng, not both")
    if rng is None:
        rng = np.random.default_rng(seed)
    tel = ensure(telemetry)
    if not tel.enabled:
        return _simulate_counted(schedule, jitter, rng, problem)[0]
    with tel.tracer.span(
        "simulate", tasks=len(schedule.workflow), jitter=jitter
    ) as span:
        trace, n_events = _simulate_counted(schedule, jitter, rng, problem)
        span.tags.update(makespan=trace.makespan, events=n_events)
        tel.metrics.counter("sim.events").inc(n_events)
        tel.metrics.counter("sim.tasks").inc(len(trace.placements))
        tel.log.info(
            "sim.finish",
            tasks=len(trace.placements),
            events=n_events,
            makespan=trace.makespan,
            slowdown=trace.slowdown,
        )
    return trace


def _simulate_counted(
    schedule: Schedule,
    jitter: float,
    rng: np.random.Generator,
    problem: CompiledProblem | None = None,
) -> tuple[ExecutionTrace, int]:
    """The integer-id event loop; returns the trace and the event count."""
    if problem is None:
        problem = compile_problem(schedule.workflow, schedule.continuum)
    cw, cc = problem.cw, problem.cc
    n = cw.n_tasks
    n_res = cc.n_resources
    task_keys = cw.keys
    res_keys = cc.keys

    res_of = np.empty(n, dtype=np.intp)
    nominal = np.empty(n, dtype=np.float64)
    rindex = cc.index
    for i, key in enumerate(task_keys):
        p = schedule[key]
        res_of[i] = rindex[p.resource]
        nominal[i] = p.finish - p.start

    # One batched draw replaces the former per-task scalar loop; NumPy's
    # Generator produces the identical stream, so traces are unchanged
    # bit-for-bit for any jitter (and exactly the plan for jitter=0).
    if jitter:
        durations = (nominal * rng.lognormal(mean=0.0, sigma=jitter, size=n)).tolist()
    else:
        durations = nominal.tolist()

    # Per-edge transfer times in one gather, IEEE-identical to
    # Continuum.transfer_time (latency diagonal is 0, bandwidth diagonal
    # is inf, so same-resource and zero-size cases fall out exactly).
    succ_indptr, succ_ids = cw.succ_indptr, cw.succ_ids
    if succ_ids.size:
        src = np.repeat(np.arange(n, dtype=np.intp), np.diff(succ_indptr))
        sr, dr = res_of[src], res_of[succ_ids]
        edge_transfer = (
            cc.latency[sr, dr] + cw.output_size[src] / cc.bandwidth[sr, dr]
        ).tolist()
    else:
        edge_transfer = []
    succ_list: list[list[int]] = cw.succ_lists()

    # Per-resource task order: exactly as planned.
    queue_of: list[list[int]] = [[] for _ in range(n_res)]
    tindex = cw.index
    for placement in schedule.placements:  # sorted by planned start
        queue_of[rindex[placement.resource]].append(tindex[placement.task])

    remaining_inputs = np.diff(cw.pred_indptr).tolist()
    data_ready = [0.0] * n
    resource_free = [0.0] * n_res
    next_in_queue = [0] * n_res

    start_of = [0.0] * n
    finish_of = [0.0] * n
    started: list[int] = []  # task ids in start order (for energy parity)
    # Event heap: (time, sequence, task) for completions.  `sequence` breaks
    # ties deterministically.
    heap: list[tuple[float, int, int]] = []
    sequence = 0

    def try_start(res_id: int, now: float) -> None:
        """Start the next planned task on *res_id* if it is ready."""
        nonlocal sequence
        queue = queue_of[res_id]
        idx = next_in_queue[res_id]
        if idx >= len(queue):
            return
        task_id = queue[idx]
        if remaining_inputs[task_id] > 0:
            return
        start = max(now, resource_free[res_id], data_ready[task_id])
        finish = start + durations[task_id]
        next_in_queue[res_id] += 1
        resource_free[res_id] = finish
        start_of[task_id] = start
        finish_of[task_id] = finish
        started.append(task_id)
        sequence += 1
        heapq.heappush(heap, (finish, sequence, task_id))

    for res_id in range(n_res):
        try_start(res_id, 0.0)

    n_events = 0
    res_list = res_of.tolist()
    while heap:
        n_events += 1
        now, _, task_id = heapq.heappop(heap)
        lo = int(succ_indptr[task_id])
        succs = succ_list[task_id]
        for k, succ in enumerate(succs, start=lo):
            arrival = now + edge_transfer[k]
            if arrival > data_ready[succ]:
                data_ready[succ] = arrival
            remaining_inputs[succ] -= 1
        # The finished resource may start its next task; successors' hosts
        # may have been waiting on the data that just arrived.
        try_start(res_list[task_id], now)
        for succ in succs:
            try_start(res_list[succ], now)

    if len(started) != n:
        ran = set(started)
        unrun = sorted(task_keys[i] for i in range(n) if i not in ran)
        raise ContinuumError(
            f"simulation deadlocked; tasks never ran: {unrun[:5]}"
        )

    makespan = max(finish_of)
    # Summed in start order with Python floats — the same order and
    # accumulator the reference's dict-of-finished iteration used.
    busy_power = cc.busy_power.tolist()
    busy_energy = sum(
        busy_power[res_list[t]] * (finish_of[t] - start_of[t]) for t in started
    )
    placements = tuple(
        sorted(
            (
                TaskPlacement(
                    task_keys[t], res_keys[res_list[t]], start_of[t], finish_of[t]
                )
                for t in range(n)
            ),
            key=lambda p: (p.start, p.task),
        )
    )
    trace = ExecutionTrace(
        placements=placements,
        makespan=float(makespan),
        planned_makespan=schedule.makespan,
        busy_energy=float(busy_energy),
    )
    return trace, n_events
