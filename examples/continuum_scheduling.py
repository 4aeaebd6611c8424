#!/usr/bin/env python3
"""Schedule the paper's Sec. 3.1 compression pipeline on the Continuum.

Models the Software Heritage PPC workload (Permuting + Partition +
Compress) as a workflow DAG — a parallel sort stage, a grouping stage, and
a parallel compression stage, exactly the three phases Sec. 3.1 describes —
and runs it on an HPC+Cloud+Edge continuum with three schedulers:

* HEFT (earliest finish time — the classic orchestration baseline),
* the energy-aware scheduler (the PESOS idea applied to workflows),
* round-robin (the naive baseline).

It then stress-tests the best plan under execution jitter with the
list-scheduling replay, the way an orchestrator would evaluate plan
robustness before committing.

Run with::

    python examples/continuum_scheduling.py
"""

from __future__ import annotations

from repro.continuum import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Task,
    Workflow,
    default_continuum,
    simulate_schedule,
)


def ppc_pipeline(n_shards: int = 8, n_blocks: int = 16) -> Workflow:
    """The Permuting + Partition + Compress workload as a DAG.

    ``n_shards`` parallel sorters feed a grouping step, which fans out into
    ``n_blocks`` parallel compressors joined by a final archive task.
    """
    tasks = [Task("ingest", work=20.0, output_size=8.0)]
    edges = []
    for shard in range(n_shards):
        key = f"sort-{shard:02d}"
        tasks.append(Task(key, work=60.0, output_size=4.0))
        edges.append(("ingest", key))
    tasks.append(Task("group", work=30.0, output_size=12.0))
    edges += [(f"sort-{s:02d}", "group") for s in range(n_shards)]
    for block in range(n_blocks):
        key = f"compress-{block:02d}"
        tasks.append(Task(key, work=90.0, output_size=1.0))
        edges.append(("group", key))
    tasks.append(Task("archive", work=10.0, output_size=0.0))
    edges += [(f"compress-{b:02d}", "archive") for b in range(n_blocks)]
    return Workflow("ppc-pipeline", tasks, edges)


def main() -> None:
    workflow = ppc_pipeline()
    continuum = default_continuum(n_hpc=2, n_cloud=4, n_edge=6, seed=1)
    print(f"Workload: {workflow.name} with {len(workflow)} tasks, "
          f"critical path {workflow.critical_path()[1]:.0f} work units")
    print(f"Continuum: {len(continuum)} nodes "
          f"(2 HPC / 4 cloud / 6 edge)")

    print(f"\n{'scheduler':<14} {'makespan':>9} {'busy J':>10} "
          f"{'total J':>10} {'carbon':>9}")
    schedules = {}
    for name, scheduler in [
        ("heft", HeftScheduler()),
        ("energy-aware", EnergyAwareScheduler(slack=2.0)),
        ("round-robin", RoundRobinScheduler()),
    ]:
        schedule = scheduler.schedule(workflow, continuum)
        schedules[name] = schedule
        print(f"{name:<14} {schedule.makespan:>8.2f}s "
              f"{schedule.busy_energy():>10.0f} "
              f"{schedule.total_energy():>10.0f} "
              f"{schedule.carbon():>9.0f}")

    # Robustness: execute the HEFT plan under increasing runtime noise.
    print("\nHEFT plan under execution jitter (lognormal sigma):")
    plan = schedules["heft"]
    for jitter in (0.0, 0.1, 0.3, 0.6):
        trace = simulate_schedule(plan, jitter=jitter, seed=13)
        print(f"  sigma={jitter:<4} realized makespan "
              f"{trace.makespan:7.2f}s (slowdown {trace.slowdown:5.3f})")

    # Where did the compute land?  Tier usage of the energy-aware plan.
    placements = schedules["energy-aware"].placements
    by_tier: dict[str, int] = {}
    for placement in placements:
        tier = placement.resource.split("-")[0]
        by_tier[tier] = by_tier.get(tier, 0) + 1
    print(f"\nEnergy-aware placement per tier: {by_tier}")

    # What does a failure-prone run cost?  Restart vs migrate recovery.
    from repro.continuum import simulate_with_failures

    print("\nUnder failures (mtbf=3s, repair=1s):")
    for policy in ("restart", "migrate"):
        failed = simulate_with_failures(
            plan, mtbf=3.0, repair_time=1.0, policy=policy, seed=21
        )
        print(f"  {policy:<8} slowdown {failed.slowdown:5.3f} "
              f"({failed.n_failures} failures, "
              f"{failed.n_migrations} migrations)")

    # Gantt charts of the plan and a jittered execution.
    from pathlib import Path

    from repro.viz import gantt_chart

    output = Path("output/scheduling")
    output.mkdir(parents=True, exist_ok=True)
    gantt_chart(plan, title="HEFT plan").save(output / "plan_gantt.svg")
    realized = simulate_schedule(plan, jitter=0.3, seed=13)
    gantt_chart(
        plan, placements=realized.placements,
        title="Realized under 30% jitter",
    ).save(output / "realized_gantt.svg")
    print(f"\nGantt charts written to {output}/")


if __name__ == "__main__":
    main()
