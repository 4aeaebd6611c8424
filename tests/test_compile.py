"""Parity suite for the compiled scheduling core.

The compiled kernels (`repro.continuum.compile`) must be **bit-identical**
to the pure-Python reference implementations in ``tests/oracles.py`` —
same placements, same starts/finishes, same tie-breaks — across a grid of
random DAGs × fleets, requirement profiles, and scheduler knobs.  Exact
float equality everywhere: ``==``, never ``approx``.
"""

import numpy as np
import pytest

from repro.continuum.compile import (
    CompiledProblem,
    ResourceTimeline,
    compile_problem,
    upward_rank_array,
)
from repro.continuum.montecarlo import SimulationContext, replicate_once
from repro.continuum.resources import default_continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
    TaskPlacement,
)
from repro.continuum.simulate import simulate_schedule
from repro.continuum.workflow import Task, Workflow, layered_workflow, random_workflow
from repro.errors import SchedulingError
from tests.oracles import (
    _simulate_reference,
    schedule_reference,
    upward_ranks_reference,
    validate_reference,
)


def _with_requirements(workflow, name):
    """Rebuild *workflow* sprinkling requirement profiles deterministically."""
    tags = [frozenset(), frozenset({"gpu"}), frozenset({"kubernetes"}),
            frozenset({"sensor"}), frozenset({"gpu", "mpi"})]
    tasks = [
        Task(t.key, t.work, t.output_size, requirements=tags[i % len(tags)])
        for i, t in enumerate(workflow)
    ]
    return Workflow(name, tasks, workflow.edges)


def _workflows():
    yield random_workflow(1, seed=0)
    yield random_workflow(25, seed=1, edge_probability=0.3)
    yield random_workflow(60, seed=2, edge_probability=0.08)
    yield random_workflow(40, seed=3, edge_probability=0.0)  # no edges
    yield layered_workflow(4, 5)
    yield _with_requirements(
        random_workflow(45, seed=4, edge_probability=0.15), "reqs"
    )


def _continuums():
    yield default_continuum(n_hpc=2, n_cloud=3, n_edge=4, seed=0)
    yield default_continuum(n_hpc=1, n_cloud=0, n_edge=0, seed=1)  # single node
    yield default_continuum(n_hpc=1, n_cloud=2, n_edge=2, seed=2)


def _schedulers():
    yield "heft-insertion", HeftScheduler(insertion=True)
    yield "heft-append", HeftScheduler(insertion=False)
    yield "energy-1.0", EnergyAwareScheduler(slack=1.0)
    yield "energy-1.3", EnergyAwareScheduler(slack=1.3)
    yield "energy-2.0", EnergyAwareScheduler(slack=2.0)
    yield "energy-8.0", EnergyAwareScheduler(slack=8.0)
    yield "round-robin", RoundRobinScheduler()


GRID = [
    pytest.param(wf, cont, sched, id=f"{wf.name}-w{wi}-c{ci}-{label}")
    for wi, wf in enumerate(_workflows())
    for ci, cont in enumerate(_continuums())
    for label, sched in _schedulers()
    # Requirement-carrying tasks are infeasible on the single-node fleet;
    # that pairing is covered by the infeasibility test instead.
    if not (wf.name == "reqs" and ci == 1)
]


class TestSchedulerParity:
    @pytest.mark.parametrize("workflow, continuum, scheduler", GRID)
    def test_bit_identical_schedules(self, workflow, continuum, scheduler):
        compiled = scheduler.schedule(workflow, continuum)
        reference = schedule_reference(scheduler, workflow, continuum)
        for key in workflow.task_keys:
            assert compiled[key] == reference[key]  # exact floats, same node

    def test_placement_floats_are_python_floats(self):
        # json.dumps downstream (artifact cache, cell stats) rejects
        # np.float64; the compiled path must lift to Python floats.
        wf = random_workflow(10, seed=7)
        schedule = HeftScheduler().schedule(wf, default_continuum(seed=7))
        for p in schedule.placements:
            assert type(p.start) is float and type(p.finish) is float

    def test_precompiled_problem_reused(self):
        wf = random_workflow(20, seed=8)
        cont = default_continuum(seed=8)
        problem = compile_problem(wf, cont)
        for _, scheduler in _schedulers():
            direct = scheduler.schedule(wf, cont)
            shared = scheduler.schedule(wf, cont, problem=problem)
            assert all(direct[k] == shared[k] for k in wf.task_keys)

    def test_infeasible_error_matches_reference(self):
        wf = Workflow(
            "bad",
            [Task("a", 1.0), Task("b", 1.0, requirements=frozenset({"quantum"}))],
        )
        cont = default_continuum(seed=0)
        with pytest.raises(SchedulingError) as compiled_err:
            HeftScheduler().schedule(wf, cont)
        with pytest.raises(SchedulingError) as reference_err:
            schedule_reference(HeftScheduler(), wf, cont)
        assert str(compiled_err.value) == str(reference_err.value)


class TestRankParity:
    @pytest.mark.parametrize(
        "workflow", list(_workflows()), ids=lambda w: w.name
    )
    def test_upward_ranks_exact(self, workflow):
        cont = default_continuum(n_hpc=2, n_cloud=3, n_edge=4, seed=3)
        heft = HeftScheduler()
        assert heft.upward_ranks(workflow, cont) == upward_ranks_reference(
            workflow, cont
        )

    def test_rank_array_cached(self):
        problem = compile_problem(
            random_workflow(15, seed=9), default_continuum(seed=9)
        )
        assert upward_rank_array(problem) is upward_rank_array(problem)


class TestValidateParity:
    @pytest.fixture(scope="class")
    def continuum(self):
        return default_continuum(n_hpc=1, n_cloud=1, n_edge=1, seed=5)

    def _raises_same(self, schedule):
        with pytest.raises(SchedulingError) as vec_err:
            schedule.validate()
        with pytest.raises(SchedulingError) as ref_err:
            validate_reference(schedule)
        assert str(vec_err.value) == str(ref_err.value)

    def test_valid_schedules_pass_both(self, continuum):
        wf = random_workflow(30, seed=5, edge_probability=0.2)
        for _, scheduler in _schedulers():
            schedule = scheduler.schedule(wf, continuum)
            schedule.validate()
            validate_reference(schedule)

    def test_overlap_detected_identically(self, continuum):
        wf = Workflow("w", [Task("a", 1.0), Task("b", 1.0)])
        self._raises_same(
            Schedule(
                wf, continuum,
                {
                    "a": TaskPlacement("a", "hpc-00", 0.0, 1.0),
                    "b": TaskPlacement("b", "hpc-00", 0.5, 1.5),
                },
            )
        )

    def test_dependency_violation_detected_identically(self, continuum):
        wf = Workflow(
            "w",
            [Task("a", 1.0, output_size=2.0), Task("b", 1.0)],
            [("a", "b")],
        )
        self._raises_same(
            Schedule(
                wf, continuum,
                {
                    "a": TaskPlacement("a", "hpc-00", 0.0, 1.0),
                    "b": TaskPlacement("b", "cloud-00", 1.0, 2.0),
                },
            )
        )

    def test_negative_timing_detected_identically(self, continuum):
        wf = Workflow("w", [Task("a", 1.0)])
        self._raises_same(
            Schedule(
                wf, continuum,
                {"a": TaskPlacement("a", "hpc-00", -1.0, -0.5)},
            )
        )

    def test_inverted_interval_detected_identically(self, continuum):
        wf = Workflow("w", [Task("a", 1.0)])
        self._raises_same(
            Schedule(
                wf, continuum,
                {"a": TaskPlacement("a", "hpc-00", 2.0, 1.0)},
            )
        )

    @staticmethod
    def _first_violations(schedule):
        outcomes = []
        for check in (schedule.validate, lambda: validate_reference(schedule)):
            try:
                check()
                outcomes.append(None)
            except SchedulingError as exc:
                outcomes.append(str(exc))
        return outcomes

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("edge_probability", [0.0, 0.2])
    def test_first_of_many_violations_matches(self, seed, edge_probability):
        # Perturbed plans carry several violations, in a shuffled
        # placement-map order; both validators must name the same first
        # one.  Edgeless plans moved between resources carry overlaps only.
        rng = np.random.default_rng(seed)
        wf = random_workflow(20, seed=seed, edge_probability=edge_probability)
        cont = default_continuum(n_hpc=1, n_cloud=2, n_edge=2, seed=seed)
        plan = HeftScheduler().schedule(wf, cont)
        placements = {}
        for i in rng.permutation(len(wf)):
            p = plan[wf.task_keys[i]]
            start, finish, resource = p.start, p.finish, p.resource
            kind = rng.integers(8) if edge_probability else 2
            if kind == 0:
                start -= rng.uniform(0.0, 2.0 * p.duration)
            elif kind == 1:
                finish, start = start, finish
            elif kind == 2:
                resource = cont.keys[rng.integers(len(cont))]
            placements[p.task] = TaskPlacement(p.task, resource, start, finish)
        vectorized, reference = self._first_violations(
            Schedule(wf, cont, placements)
        )
        assert vectorized == reference


class TestSimulatorParity:
    @pytest.mark.parametrize("jitter", [0.0, 0.25, 0.7])
    @pytest.mark.parametrize(
        "scheduler", [HeftScheduler(), RoundRobinScheduler()],
        ids=["heft", "rr"],
    )
    def test_traces_bit_identical(self, scheduler, jitter):
        wf = random_workflow(50, seed=11, edge_probability=0.12)
        schedule = scheduler.schedule(wf, default_continuum(seed=11))
        compiled = simulate_schedule(schedule, jitter=jitter, seed=21)
        reference, _ = _simulate_reference(
            schedule, jitter, np.random.default_rng(21)
        )
        assert compiled.placements == reference.placements
        assert compiled.makespan == reference.makespan
        assert compiled.busy_energy == reference.busy_energy

    def test_precompiled_problem_identical(self):
        wf = random_workflow(30, seed=12)
        cont = default_continuum(seed=12)
        problem = compile_problem(wf, cont)
        schedule = HeftScheduler().schedule(wf, cont, problem=problem)
        a = simulate_schedule(schedule, jitter=0.4, seed=1)
        b = simulate_schedule(schedule, jitter=0.4, seed=1, problem=problem)
        assert a.placements == b.placements


class TestMonteCarloSharing:
    def test_shared_problem_context_identical(self):
        wf = random_workflow(25, seed=13, edge_probability=0.2)
        cont = default_continuum(seed=13)
        problem = compile_problem(wf, cont)
        schedule = HeftScheduler().schedule(wf, cont, problem=problem)
        solo = SimulationContext(schedule)
        shared = SimulationContext(schedule, problem)
        for mtbf in (None, 40.0):
            a = replicate_once(
                solo, mtbf=mtbf, jitter=0.3, rng=np.random.default_rng(5)
            )
            b = replicate_once(
                shared, mtbf=mtbf, jitter=0.3, rng=np.random.default_rng(5)
            )
            assert a.as_tuple() == b.as_tuple()

    def test_contexts_of_one_problem_share_tables(self):
        wf = random_workflow(15, seed=14)
        cont = default_continuum(seed=14)
        problem = compile_problem(wf, cont)
        s1 = HeftScheduler().schedule(wf, cont, problem=problem)
        s2 = RoundRobinScheduler().schedule(wf, cont, problem=problem)
        c1 = SimulationContext(s1, problem)
        c2 = SimulationContext(s2, problem)
        assert c1.dur is c2.dur
        assert c1.transfer is c2.transfer
        assert c1.preds is c2.preds


class TestCompiledProblem:
    def test_duration_matches_execution_time(self):
        wf = random_workflow(12, seed=15)
        cont = default_continuum(seed=15)
        problem = compile_problem(wf, cont)
        for i, task in enumerate(wf):
            for j, resource in enumerate(cont):
                assert problem.duration[i, j] == resource.execution_time(task.work)

    def test_transfer_row_matches_transfer_time(self):
        wf = random_workflow(8, seed=16)
        cont = default_continuum(n_hpc=1, n_cloud=2, n_edge=1, seed=16)
        problem = compile_problem(wf, cont)
        sizes = [0.0, 0.5, 4.2]
        for size in sizes:
            for i, src in enumerate(cont.keys):
                row = problem.transfer_row(size, i)
                for j, dst in enumerate(cont.keys):
                    assert row[j] == cont.transfer_time(size, src, dst)

    def test_feasibility_matches_supports(self):
        wf = _with_requirements(random_workflow(20, seed=17), "reqs2")
        cont = default_continuum(seed=17)
        problem = compile_problem(wf, cont)
        for i, task in enumerate(wf):
            expected = [
                j for j, r in enumerate(cont) if r.supports(task.requirements)
            ]
            assert problem.feasible_ids(i).tolist() == expected

    def test_duration_matrix_is_frozen(self):
        problem = compile_problem(
            random_workflow(5, seed=18), default_continuum(seed=18)
        )
        with pytest.raises(ValueError):
            problem.duration[0, 0] = 1.0


class TestResourceTimeline:
    def test_empty_timeline(self):
        timeline = ResourceTimeline()
        assert len(timeline) == 0
        assert timeline.last_finish == 0.0
        assert timeline.tail() == 0.0
        assert timeline.intervals == ()

    def test_last_finish_tracks_reservations(self):
        timeline = ResourceTimeline()
        timeline.reserve(0.0, 2.0)
        timeline.reserve(5.0, 1.0)
        assert timeline.last_finish == 6.0
        assert timeline.tail() == 6.0
        assert timeline.intervals == ((0.0, 2.0), (5.0, 6.0))

    def test_earliest_slot_fills_gap(self):
        timeline = ResourceTimeline()
        timeline.reserve(0.0, 1.0)
        timeline.reserve(3.0, 1.0)
        assert timeline.earliest_slot(0.0, 2.0) == 1.0  # gap [1, 3)
        assert timeline.earliest_slot(0.0, 2.5) == 4.0  # no gap wide enough
        assert timeline.earliest_slot(10.0, 1.0) == 10.0

    def test_earliest_slot_skips_past_ready(self):
        timeline = ResourceTimeline()
        for start in range(0, 10, 2):
            timeline.reserve(float(start), 1.0)  # busy [k, k+1) gaps [k+1, k+2)
        assert timeline.earliest_slot(7.2, 0.5) == 7.2
        assert timeline.earliest_slot(8.5, 1.0) == 9.0
