"""Continuum-substrate benchmark: scheduling across the HPC+Cloud+Edge tiers.

Exercises the workflow substrate the paper's orchestration and energy
directions motivate: HEFT, the energy-aware scheduler, and the round-robin
baseline on representative workloads, reporting makespan/energy/carbon
series, plus the energy-vs-makespan ablation over the slack knob and the
robustness of plans under execution jitter.

Two acceptance gates cover the compiled scheduling core
(`repro.continuum.compile`): compiled HEFT must beat the pure-Python
reference (`tests/oracles.py`) by ≥10× on a 5k-task × 500-resource fleet (on bit-identical
placements), and a 10k-task × 1k-resource fleet must schedule, validate,
and simulate end-to-end inside a fixed wall-clock budget.
"""

from __future__ import annotations

import time

import pytest
from conftest import report

from repro.continuum.compile import compile_problem
from repro.continuum.resources import default_continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
)
from repro.continuum.simulate import simulate_schedule
from repro.continuum.workflow import layered_workflow, random_workflow
from tests.oracles import schedule_reference

CONTINUUM = default_continuum(n_hpc=2, n_cloud=4, n_edge=8, seed=2023)
WORKFLOW = random_workflow(120, seed=2023, edge_probability=0.08)
SCHEDULERS = {
    "heft": HeftScheduler(),
    "energy-aware": EnergyAwareScheduler(slack=2.0),
    "round-robin": RoundRobinScheduler(),
}


@pytest.mark.parametrize("name", list(SCHEDULERS))
def test_bench_scheduler_random_dag(benchmark, name):
    """Schedule a 120-task random DAG on the 14-node continuum."""
    scheduler = SCHEDULERS[name]
    schedule = benchmark(scheduler.schedule, WORKFLOW, CONTINUUM)
    schedule.validate()
    report(
        f"Scheduling — {name} on random-120",
        [f"makespan={schedule.makespan:.3f}s "
         f"busy={schedule.busy_energy():.0f}J "
         f"total={schedule.total_energy():.0f}J "
         f"carbon={schedule.carbon():.0f}"],
    )


def test_bench_scheduler_ranking_low_comm(benchmark):
    """With light communication, HEFT must beat round-robin on makespan."""
    wf = random_workflow(100, seed=7, output_range=(0.0, 0.1))

    def run_all():
        return {
            name: scheduler.schedule(wf, CONTINUUM)
            for name, scheduler in SCHEDULERS.items()
        }

    schedules = benchmark(run_all)
    assert schedules["heft"].makespan < schedules["round-robin"].makespan
    report(
        "Scheduling — makespan ranking (communication-light random-100)",
        [f"{name}: makespan={s.makespan:.3f}s busy={s.busy_energy():.0f}J"
         for name, s in schedules.items()],
    )


@pytest.mark.parametrize("slack", [1.0, 1.5, 2.0, 4.0])
def test_bench_energy_slack_ablation(benchmark, slack):
    """Energy-vs-makespan trade-off over the slack knob (DESIGN.md ablation)."""
    wf = layered_workflow(6, 8, work=20.0, output_size=0.5)
    scheduler = EnergyAwareScheduler(slack=slack)

    schedule = benchmark(scheduler.schedule, wf, CONTINUUM)
    schedule.validate()
    report(
        f"Energy ablation — slack={slack}",
        [f"makespan={schedule.makespan:.3f}s busy={schedule.busy_energy():.0f}J "
         f"total={schedule.total_energy():.0f}J"],
    )


def test_bench_plan_robustness(benchmark):
    """Execute the HEFT plan under 30% duration jitter; slowdown stays sane."""
    schedule = HeftScheduler().schedule(WORKFLOW, CONTINUUM)

    trace = benchmark(simulate_schedule, schedule, jitter=0.3, seed=99)
    assert 0.5 < trace.slowdown < 3.0
    report(
        "Robustness — HEFT plan under lognormal(0.3) jitter",
        [f"planned={trace.planned_makespan:.3f}s realized={trace.makespan:.3f}s "
         f"slowdown={trace.slowdown:.3f}"],
    )


# Large fleets: sparse DAGs (mean degree ~2-4) at WfCommons-like task
# counts — the regime the compiled core exists for.
LARGE_TASKS, LARGE_RESOURCES = 5_000, 500
HUGE_TASKS, HUGE_RESOURCES = 10_000, 1_000
HUGE_BUDGET_S = 20.0  # generous headroom over the measured ~1.1 s (2-core VM)


def test_bench_heft_compiled_vs_reference(benchmark):
    """Acceptance gate: ≥10× compiled-HEFT speedup at 5k tasks × 500 nodes,
    measured on bit-identical placements."""
    wf = random_workflow(LARGE_TASKS, seed=2026, edge_probability=0.0008)
    continuum = default_continuum(
        n_hpc=50, n_cloud=150, n_edge=300, seed=2026
    )
    scheduler = HeftScheduler()

    start = time.perf_counter()
    reference = schedule_reference(scheduler, wf, continuum)
    reference_s = time.perf_counter() - start

    compiled = benchmark.pedantic(
        scheduler.schedule, args=(wf, continuum), rounds=3, iterations=1
    )
    compiled_s = min(
        _timed(scheduler.schedule, wf, continuum) for _ in range(3)
    )

    # Same placements, same tie-breaks: the speedup is measured on
    # bit-identical schedules, not on a shortcut.
    assert all(compiled[k] == reference[k] for k in wf.task_keys)

    speedup = reference_s / compiled_s
    report(
        f"Compiled core — HEFT at {LARGE_TASKS} tasks × "
        f"{LARGE_RESOURCES} resources ({len(wf.edges)} edges)",
        [
            f"reference: {reference_s:8.2f} s",
            f"compiled:  {compiled_s:8.2f} s (incl. compilation)",
            f"speedup:   {speedup:8.1f}x (bit-identical placements)",
        ],
    )
    assert speedup >= 10.0, (
        f"compiled HEFT only {speedup:.1f}x faster than reference (< 10x)"
    )


def test_bench_huge_fleet_end_to_end(benchmark):
    """Acceptance gate: 10k tasks × 1k resources schedule + validate +
    simulate end-to-end inside the wall-clock budget."""
    wf = random_workflow(HUGE_TASKS, seed=2027, edge_probability=0.0004)
    continuum = default_continuum(
        n_hpc=100, n_cloud=300, n_edge=600, seed=2027
    )

    def end_to_end():
        problem = compile_problem(wf, continuum)
        schedule = HeftScheduler().schedule(
            wf, continuum, problem=problem
        )  # validates internally
        trace = simulate_schedule(
            schedule, jitter=0.2, seed=7, problem=problem
        )
        return schedule, trace

    start = time.perf_counter()
    schedule, trace = end_to_end()
    elapsed = time.perf_counter() - start
    benchmark.pedantic(end_to_end, rounds=2, iterations=1)

    assert len(schedule.placements) == HUGE_TASKS
    assert 0.5 < trace.slowdown < 3.0
    report(
        f"Compiled core — {HUGE_TASKS} tasks × {HUGE_RESOURCES} resources "
        f"end-to-end ({len(wf.edges)} edges)",
        [
            f"schedule + validate + simulate: {elapsed:6.2f} s "
            f"(budget {HUGE_BUDGET_S:.0f} s)",
            f"makespan={schedule.makespan:.3f}s slowdown={trace.slowdown:.3f}",
        ],
    )
    assert elapsed <= HUGE_BUDGET_S, (
        f"10k × 1k pipeline took {elapsed:.2f} s (> {HUGE_BUDGET_S:.0f} s)"
    )


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
