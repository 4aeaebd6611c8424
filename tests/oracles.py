"""Reference implementations kept as test oracles.

Each function here is the original pure-Python, string-keyed version of
something ``repro.continuum`` now computes on integer ids and arrays.
The production code must match them bit for bit; the parity suites
(``tests/test_compile.py``, ``tests/test_simulate.py``,
``tests/test_failures.py``) and ``benchmarks/test_bench_scheduling.py``
import them from here.  They read well and run slowly, and none of them
is reachable from ``src/``.

* :func:`schedule_reference`, :func:`upward_ranks_reference` — the
  original HEFT, energy-aware and round-robin placements and HEFT ranks;
* :func:`validate_reference` — the loop validator whose first-violation
  messages ``Schedule.validate()`` reproduces;
* :func:`_simulate_reference` — the object-keyed event loop behind
  ``simulate_schedule``;
* :func:`_replay` and :class:`_FailureClock` — the string-keyed failure
  replay behind ``simulate_with_failures``, which now wraps the
  Monte-Carlo replay kernel;
* :func:`dedup_candidates_reference`, :func:`cluster_titles_reference` —
  the dedup candidate pairs and clusters built from their definitions,
  which ``repro.corpus.dedup.cluster_titles`` counts and finds without
  materializing the pair set;
* :func:`store_stats_reference`, :func:`store_by_year_reference`,
  :func:`store_by_venue_reference` — ``CorpusStore`` aggregates by full
  scans of the live tables, with no index shortcut and no cache.
"""

from __future__ import annotations

import heapq
from collections import Counter

import numpy as np

from repro.continuum.compile import ResourceTimeline
from repro.continuum.failures import FailureTrace
from repro.continuum.resources import Continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
    TaskPlacement,
)
from repro.continuum.simulate import ExecutionTrace
from repro.continuum.workflow import Workflow
from repro.corpus.dedup import BLOCKING_KEYS, title_shingles
from repro.corpus.venues import VenueNormalizer
from repro.errors import ContinuumError, CorpusError, SchedulingError
from repro.stats.frequency import FrequencyTable

# -- scheduling ---------------------------------------------------------------


def _feasible_resources(
    workflow: Workflow, continuum: Continuum
) -> dict[str, list[str]]:
    feasible: dict[str, list[str]] = {}
    for task in workflow:
        nodes = [r.key for r in continuum if r.supports(task.requirements)]
        if not nodes:
            raise SchedulingError(
                f"no resource satisfies requirements {sorted(task.requirements)} "
                f"of task {task.key!r}"
            )
        feasible[task.key] = nodes
    return feasible


def validate_reference(schedule: Schedule) -> None:
    """The original loop validator — raises the first violation found."""
    eps = 1e-9
    workflow, continuum = schedule.workflow, schedule.continuum
    for task_key in workflow.task_keys:
        placement = schedule[task_key]
        if placement.start < -eps or placement.finish < placement.start - eps:
            raise SchedulingError(f"task {task_key!r} has invalid timing")
        for pred_key in workflow.predecessors(task_key):
            pred = schedule[pred_key]
            transfer = continuum.transfer_time(
                workflow[pred_key].output_size,
                pred.resource,
                placement.resource,
            )
            if placement.start + eps < pred.finish + transfer:
                raise SchedulingError(
                    f"task {task_key!r} starts before data from "
                    f"{pred_key!r} arrives"
                )
    by_resource: dict[str, list[TaskPlacement]] = {}
    for placement in schedule._placements.values():  # placement-map order
        by_resource.setdefault(placement.resource, []).append(placement)
    for resource, slots in by_resource.items():
        slots.sort(key=lambda p: p.start)
        for a, b in zip(slots, slots[1:]):
            if b.start + eps < a.finish:
                raise SchedulingError(
                    f"tasks {a.task!r} and {b.task!r} overlap on {resource!r}"
                )


def upward_ranks_reference(
    workflow: Workflow, continuum: Continuum
) -> dict[str, float]:
    """The original per-task HEFT rank loop."""
    speeds = continuum.speeds
    mean_speed_inv = float((1.0 / speeds).mean())
    # Mean communication cost per data unit over distinct node pairs.
    n = len(continuum)
    if n > 1:
        off_diag = ~np.eye(n, dtype=bool)
        mean_inv_bw = float((1.0 / continuum.bandwidth[off_diag]).mean())
        mean_lat = float(continuum.latency[off_diag].mean())
    else:
        mean_inv_bw = 0.0
        mean_lat = 0.0

    ranks: dict[str, float] = {}
    for key in reversed(workflow.topological_order()):
        task = workflow[key]
        mean_exec = task.work * mean_speed_inv
        best = 0.0
        for succ in workflow.successors(key):
            comm = mean_lat + task.output_size * mean_inv_bw
            best = max(best, comm + ranks[succ])
        ranks[key] = mean_exec + best
    return ranks


def schedule_reference(
    scheduler, workflow: Workflow, continuum: Continuum
) -> Schedule:
    """The original pure-Python placement of *scheduler*'s policy."""
    if isinstance(scheduler, HeftScheduler):
        placements = _heft_reference(workflow, continuum, scheduler.insertion)
    elif isinstance(scheduler, EnergyAwareScheduler):
        placements = _energy_reference(workflow, continuum, scheduler.slack)
    elif isinstance(scheduler, RoundRobinScheduler):
        placements = _round_robin_reference(workflow, continuum)
    else:  # pragma: no cover - test misuse
        raise TypeError(f"no reference for {type(scheduler).__name__}")
    schedule = Schedule(workflow, continuum, placements)
    validate_reference(schedule)
    return schedule


def _heft_reference(
    workflow: Workflow, continuum: Continuum, insertion: bool
) -> dict[str, TaskPlacement]:
    feasible = _feasible_resources(workflow, continuum)
    ranks = upward_ranks_reference(workflow, continuum)
    order = sorted(workflow.task_keys, key=lambda k: (-ranks[k], k))

    timelines = {key: ResourceTimeline() for key in continuum.keys}
    placements: dict[str, TaskPlacement] = {}
    for task_key in order:
        task = workflow[task_key]
        best: TaskPlacement | None = None
        for node_key in feasible[task_key]:
            resource = continuum[node_key]
            ready = 0.0
            for pred_key in workflow.predecessors(task_key):
                pred = placements[pred_key]
                arrival = pred.finish + continuum.transfer_time(
                    workflow[pred_key].output_size, pred.resource, node_key
                )
                ready = max(ready, arrival)
            duration = resource.execution_time(task.work)
            if insertion:
                start = timelines[node_key].earliest_slot(ready, duration)
            else:
                start = max(ready, timelines[node_key].last_finish)
            candidate = TaskPlacement(task_key, node_key, start, start + duration)
            if best is None or candidate.finish < best.finish:
                best = candidate
        assert best is not None  # feasible[] is never empty
        timelines[best.resource].reserve(best.start, best.duration)
        placements[task_key] = best
    return placements


def _energy_reference(
    workflow: Workflow, continuum: Continuum, slack: float
) -> dict[str, TaskPlacement]:
    feasible = _feasible_resources(workflow, continuum)
    ranks = upward_ranks_reference(workflow, continuum)
    order = sorted(workflow.task_keys, key=lambda k: (-ranks[k], k))

    timelines = {key: ResourceTimeline() for key in continuum.keys}
    placements: dict[str, TaskPlacement] = {}
    for task_key in order:
        task = workflow[task_key]
        candidates: list[tuple[float, float, TaskPlacement]] = []
        for node_key in feasible[task_key]:
            resource = continuum[node_key]
            ready = 0.0
            for pred_key in workflow.predecessors(task_key):
                pred = placements[pred_key]
                arrival = pred.finish + continuum.transfer_time(
                    workflow[pred_key].output_size, pred.resource, node_key
                )
                ready = max(ready, arrival)
            duration = resource.execution_time(task.work)
            start = timelines[node_key].earliest_slot(ready, duration)
            energy = resource.busy_power * duration
            candidates.append(
                (
                    energy,
                    start + duration,
                    TaskPlacement(task_key, node_key, start, start + duration),
                )
            )
        best_finish = min(c[1] for c in candidates)
        admissible = [c for c in candidates if c[1] <= slack * best_finish]
        _, _, placement = min(
            admissible, key=lambda c: (c[0], c[1], c[2].resource)
        )
        timelines[placement.resource].reserve(placement.start, placement.duration)
        placements[task_key] = placement
    return placements


def _round_robin_reference(
    workflow: Workflow, continuum: Continuum
) -> dict[str, TaskPlacement]:
    feasible = _feasible_resources(workflow, continuum)
    keys = continuum.keys
    timelines = {key: ResourceTimeline() for key in keys}
    placements: dict[str, TaskPlacement] = {}
    cursor = 0
    for task_key in workflow.topological_order():
        task = workflow[task_key]
        for offset in range(len(keys)):
            node_key = keys[(cursor + offset) % len(keys)]
            if node_key in feasible[task_key]:
                cursor = (cursor + offset + 1) % len(keys)
                break
        else:  # pragma: no cover - _feasible_resources guarantees a hit
            raise SchedulingError(f"no feasible resource for {task_key!r}")
        resource = continuum[node_key]
        ready = 0.0
        for pred_key in workflow.predecessors(task_key):
            pred = placements[pred_key]
            arrival = pred.finish + continuum.transfer_time(
                workflow[pred_key].output_size, pred.resource, node_key
            )
            ready = max(ready, arrival)
        duration = resource.execution_time(task.work)
        start = timelines[node_key].earliest_slot(ready, duration)
        placement = TaskPlacement(task_key, node_key, start, start + duration)
        timelines[node_key].reserve(start, duration)
        placements[task_key] = placement
    return placements


# -- event-loop simulation ------------------------------------------------------


def _simulate_reference(
    schedule: Schedule, jitter: float, rng: np.random.Generator
) -> tuple[ExecutionTrace, int]:
    """The original object-keyed event loop behind ``simulate_schedule``."""
    workflow: Workflow = schedule.workflow
    continuum: Continuum = schedule.continuum

    # Per-resource task order: exactly as planned.
    queue_of: dict[str, list[str]] = {key: [] for key in continuum.keys}
    for placement in schedule.placements:  # sorted by planned start
        queue_of[placement.resource].append(placement.task)

    durations: dict[str, float] = {}
    for task in workflow:
        nominal = schedule[task.key].duration
        factor = float(rng.lognormal(mean=0.0, sigma=jitter)) if jitter else 1.0
        durations[task.key] = nominal * factor

    remaining_inputs = {
        key: len(workflow.predecessors(key)) for key in workflow.task_keys
    }
    data_ready: dict[str, float] = {key: 0.0 for key in workflow.task_keys}
    resource_free: dict[str, float] = {key: 0.0 for key in continuum.keys}
    next_in_queue: dict[str, int] = {key: 0 for key in continuum.keys}

    finished: dict[str, TaskPlacement] = {}
    # Event heap: (time, sequence, task) for completions.  `sequence` breaks
    # ties deterministically.
    heap: list[tuple[float, int, str]] = []
    sequence = 0

    def try_start(resource_key: str, now: float) -> None:
        """Start the next planned task on *resource_key* if it is ready."""
        nonlocal sequence
        queue = queue_of[resource_key]
        idx = next_in_queue[resource_key]
        if idx >= len(queue):
            return
        task_key = queue[idx]
        if remaining_inputs[task_key] > 0:
            return
        start = max(now, resource_free[resource_key], data_ready[task_key])
        finish = start + durations[task_key]
        next_in_queue[resource_key] += 1
        resource_free[resource_key] = finish
        finished[task_key] = TaskPlacement(task_key, resource_key, start, finish)
        sequence += 1
        heapq.heappush(heap, (finish, sequence, task_key))

    for resource_key in continuum.keys:
        try_start(resource_key, 0.0)

    n_events = 0
    while heap:
        n_events += 1
        now, _, task_key = heapq.heappop(heap)
        placement = finished[task_key]
        for succ in workflow.successors(task_key):
            transfer = continuum.transfer_time(
                workflow[task_key].output_size,
                placement.resource,
                schedule[succ].resource,
            )
            data_ready[succ] = max(data_ready[succ], now + transfer)
            remaining_inputs[succ] -= 1
        # The finished resource may start its next task; successors' hosts
        # may have been waiting on the data that just arrived.
        try_start(placement.resource, now)
        for succ in workflow.successors(task_key):
            try_start(schedule[succ].resource, now)

    if len(finished) != len(workflow):
        unrun = sorted(set(workflow.task_keys) - set(finished))
        raise ContinuumError(
            f"simulation deadlocked; tasks never ran: {unrun[:5]}"
        )

    makespan = max(p.finish for p in finished.values())
    busy_energy = sum(
        continuum[p.resource].busy_power * p.duration
        for p in finished.values()
    )
    trace = ExecutionTrace(
        placements=tuple(
            sorted(finished.values(), key=lambda p: (p.start, p.task))
        ),
        makespan=float(makespan),
        planned_makespan=schedule.makespan,
        busy_energy=float(busy_energy),
    )
    return trace, n_events


# -- failure replay ---------------------------------------------------------------


class _FailureClock:
    """Per-resource Poisson failure process, sampled lazily."""

    def __init__(self, keys, mtbf: float, rng: np.random.Generator) -> None:
        self._mtbf = mtbf
        self._rng = rng
        self._next: dict[str, float] = {
            key: float(rng.exponential(mtbf)) for key in keys
        }
        #: Failures that fired (harmless idle reboots included) — the
        #: ``sim.failures_injected`` counter.
        self.consumed = 0

    def next_failure(self, resource: str) -> float:
        return self._next[resource]

    def consume(self, resource: str) -> None:
        """The pending failure happened; sample the next one."""
        self.consumed += 1
        self._next[resource] += float(self._rng.exponential(self._mtbf))

    def advance_past(self, resource: str, time: float) -> None:
        """Discard failures that elapsed while the resource was idle.

        A failure of an idle node is modelled as harmless (it reboots with
        nothing to lose), so pending failure times strictly before *time*
        are skipped.
        """
        while self._next[resource] < time:
            self.consume(resource)


def _replay(
    schedule: Schedule,
    mtbf: float,
    repair_time: float,
    policy: str,
    rng: np.random.Generator,
    max_attempts: int,
) -> tuple[FailureTrace, int, int]:
    """The string-keyed failure replay behind ``simulate_with_failures``.

    Returns (trace, failures fired, attempts started) — the values of the
    ``sim.failures_injected`` and ``sim.events`` counters.
    """
    workflow = schedule.workflow
    continuum: Continuum = schedule.continuum
    clock = _FailureClock(continuum.keys, mtbf, rng)

    resource_free: dict[str, float] = {key: 0.0 for key in continuum.keys}
    finished: dict[str, TaskPlacement] = {}
    n_failures = 0
    lost_work = 0.0
    attempts_started = 0

    def data_ready(task_key: str, on_resource: str) -> float:
        ready = 0.0
        for pred in workflow.predecessors(task_key):
            placement = finished[pred]
            arrival = placement.finish + continuum.transfer_time(
                workflow[pred].output_size, placement.resource, on_resource
            )
            ready = max(ready, arrival)
        return ready

    # Replay in the plan's global start order (topological for a valid
    # schedule: successors start after predecessors finish).
    order = [p.task for p in schedule.placements]

    for task_key in order:
        task = workflow[task_key]
        resource_key = schedule[task_key].resource
        attempts = 0
        while True:
            if attempts >= max_attempts:
                raise ContinuumError(
                    f"task {task_key!r} failed {attempts} times; "
                    f"mtbf={mtbf} is too small for its duration"
                )
            attempts_started += 1
            resource = continuum[resource_key]
            duration = resource.execution_time(task.work)
            start = max(
                resource_free[resource_key],
                data_ready(task_key, resource_key),
            )
            clock.advance_past(resource_key, start)
            failure = clock.next_failure(resource_key)
            if failure >= start + duration:
                finish = start + duration
                resource_free[resource_key] = finish
                finished[task_key] = TaskPlacement(
                    task_key, resource_key, start, finish
                )
                break
            # The attempt dies at the failure instant.
            attempts += 1
            n_failures += 1
            lost_work += failure - start
            clock.consume(resource_key)
            resource_free[resource_key] = failure + repair_time
            if policy == "migrate":
                # Earliest-finish feasible resource for the retry.
                candidates = []
                for other in continuum:
                    if not other.supports(task.requirements):
                        continue
                    retry_start = max(
                        resource_free[other.key],
                        data_ready(task_key, other.key),
                    )
                    retry_finish = retry_start + other.execution_time(task.work)
                    candidates.append((retry_finish, other.key))
                _, resource_key = min(candidates)

    makespan = max(p.finish for p in finished.values())
    n_migrations = sum(
        1
        for task_key, placement in finished.items()
        if placement.resource != schedule[task_key].resource
    )
    trace = FailureTrace(
        placements=tuple(
            sorted(finished.values(), key=lambda p: (p.start, p.task))
        ),
        makespan=float(makespan),
        planned_makespan=schedule.makespan,
        n_failures=n_failures,
        n_migrations=n_migrations,
        lost_work=float(lost_work),
    )
    return trace, clock.consumed, attempts_started


# -- deduplication ------------------------------------------------------------


def dedup_candidates_reference(
    titles: list[str], shingle_size: int = 4
) -> set[tuple[int, int]]:
    """Every candidate pair ``(a, b)``, ``a < b``, of dedup blocking.

    A record's rare keys are its BLOCKING_KEYS shingles of lowest corpus
    frequency, ties broken by the shingle string; ``{a, b}`` is a
    candidate when a rare key of either is a shingle of the other.
    """
    shingles = [set(title_shingles(t, shingle_size)) for t in titles]
    frequency = Counter(s for record in shingles for s in record)
    rare = [
        set(sorted(record, key=lambda s: (frequency[s], s))[:BLOCKING_KEYS])
        for record in shingles
    ]
    n = len(titles)
    return {
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rare[a] & shingles[b] or rare[b] & shingles[a]
    }


def cluster_titles_reference(
    titles: list[str],
    years: list[int | None],
    *,
    threshold: float = 0.75,
    containment_threshold: float = 0.9,
    shingle_size: int = 4,
    year_slack: int = 1,
) -> tuple[list[list[int]], int]:
    """Score every candidate pair, then cluster by connected components.

    Returns ``(clusters, pairs_scored)`` in the kernel's layout: ascending
    index lists of size >= 2, ordered by first member.
    """
    shingles = [set(title_shingles(t, shingle_size)) for t in titles]
    pairs = dedup_candidates_reference(titles, shingle_size)
    neighbours: dict[int, set[int]] = {i: set() for i in range(len(titles))}
    for a, b in pairs:
        ya, yb = years[a], years[b]
        if ya is not None and yb is not None and abs(ya - yb) > year_slack:
            continue
        common = len(shingles[a] & shingles[b])
        jaccard = common / len(shingles[a] | shingles[b])
        containment = common / min(len(shingles[a]), len(shingles[b]))
        if jaccard >= threshold or containment >= containment_threshold:
            neighbours[a].add(b)
            neighbours[b].add(a)
    seen: set[int] = set()
    clusters: list[list[int]] = []
    for start in range(len(titles)):
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for nxt in neighbours[frontier.pop()] - component:
                component.add(nxt)
                frontier.append(nxt)
        seen |= component
        if len(component) >= 2:
            clusters.append(sorted(component))
    return clusters, len(pairs)


# -- corpus store aggregates ----------------------------------------------------


def store_stats_reference(store) -> dict:
    """``CorpusStore.stats()`` as one scan per table.

    The original SQL: a single ``COUNT(DISTINCT term)`` pass over the
    postings and a single ``MIN(year), MAX(year)`` pass over the records.
    """
    db = store.db
    (records,) = db.execute("SELECT COUNT(*) FROM pubs").fetchone()
    postings, terms = db.execute(
        "SELECT COUNT(*), COUNT(DISTINCT term) FROM postings"
    ).fetchone()
    first, last = db.execute("SELECT MIN(year), MAX(year) FROM pubs").fetchone()
    return {
        "records": records,
        "postings": postings,
        "terms": terms,
        "year_range": None if first is None else (first, last),
        "path": str(store.path) if store.path is not None else None,
    }


def store_by_year_reference(store) -> FrequencyTable:
    """``CorpusStore.by_year()`` counted in Python from every record row."""
    years = Counter(
        year
        for (year,) in store.db.execute("SELECT year FROM pubs")
        if year is not None
    )
    if not years:
        raise CorpusError("no publication has a year")
    return FrequencyTable(
        {year: years[year] for year in range(min(years), max(years) + 1)}
    )


def store_by_venue_reference(
    store, normalizer: VenueNormalizer | None = None
) -> FrequencyTable:
    """``CorpusStore.by_venue()`` normalized and counted row by row."""
    normalizer = normalizer or VenueNormalizer()
    counts = Counter(
        normalizer.normalize(venue) or "(unknown)"
        for (venue,) in store.db.execute("SELECT venue FROM pubs")
    )
    if not counts:
        raise CorpusError("corpus store is empty")
    return FrequencyTable(
        dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    )
