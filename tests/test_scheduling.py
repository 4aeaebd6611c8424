"""Unit tests for the schedulers and schedule invariants."""

import pytest

from repro.continuum.resources import Continuum, Resource, ResourceKind, default_continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
    Schedule,
    TaskPlacement,
)
from repro.continuum.workflow import Task, Workflow, layered_workflow, random_workflow
from repro.errors import SchedulingError

SCHEDULERS = [HeftScheduler(), EnergyAwareScheduler(slack=2.0), RoundRobinScheduler()]


@pytest.fixture(scope="module")
def continuum():
    return default_continuum(n_hpc=2, n_cloud=3, n_edge=4, seed=0)


@pytest.fixture(scope="module")
def workflow():
    return random_workflow(40, seed=2, edge_probability=0.2)


class TestScheduleValidity:
    @pytest.mark.parametrize("scheduler", SCHEDULERS,
                             ids=["heft", "energy", "round-robin"])
    def test_valid_on_random_dag(self, scheduler, workflow, continuum):
        schedule = scheduler.schedule(workflow, continuum)
        schedule.validate()  # no exception
        assert schedule.makespan > 0
        assert len(schedule.placements) == len(workflow)

    @pytest.mark.parametrize("scheduler", SCHEDULERS,
                             ids=["heft", "energy", "round-robin"])
    def test_valid_on_layered(self, scheduler, continuum):
        wf = layered_workflow(4, 5)
        schedule = scheduler.schedule(wf, continuum)
        schedule.validate()

    def test_single_task(self, continuum):
        wf = Workflow("one", [Task("t", 100.0)])
        schedule = HeftScheduler().schedule(wf, continuum)
        assert schedule.makespan == pytest.approx(
            100.0 / max(continuum.speeds)
        )


class TestRequirements:
    def test_gpu_task_placed_on_gpu_node(self, continuum):
        wf = Workflow("gpu", [Task("t", 10.0, requirements={"gpu"})])
        for scheduler in SCHEDULERS:
            schedule = scheduler.schedule(wf, continuum)
            resource = continuum[schedule["t"].resource]
            assert "gpu" in resource.capabilities

    def test_unsatisfiable_requirement(self, continuum):
        wf = Workflow("bad", [Task("t", 10.0, requirements={"quantum"})])
        with pytest.raises(SchedulingError):
            HeftScheduler().schedule(wf, continuum)


class TestHeft:
    def test_ranks_decrease_along_edges(self, workflow, continuum):
        ranks = HeftScheduler().upward_ranks(workflow, continuum)
        for src, dst in workflow.edges:
            assert ranks[src] > ranks[dst]

    def test_deterministic(self, workflow, continuum):
        a = HeftScheduler().schedule(workflow, continuum)
        b = HeftScheduler().schedule(workflow, continuum)
        assert a.makespan == b.makespan
        assert all(a[k].resource == b[k].resource for k in workflow.task_keys)

    def test_beats_round_robin_on_makespan(self, continuum):
        # Communication-light regime where EFT shines.
        wf = random_workflow(60, seed=9, output_range=(0.0, 0.1))
        heft = HeftScheduler().schedule(wf, continuum)
        rr = RoundRobinScheduler().schedule(wf, continuum)
        assert heft.makespan < rr.makespan

    def test_insertion_no_worse_than_append(self, workflow, continuum):
        insertion = HeftScheduler(insertion=True).schedule(workflow, continuum)
        append = HeftScheduler(insertion=False).schedule(workflow, continuum)
        assert insertion.makespan <= append.makespan * 1.0001


class TestEnergyAware:
    def test_slack_validation(self):
        with pytest.raises(SchedulingError):
            EnergyAwareScheduler(slack=0.5)

    def test_more_slack_saves_busy_energy(self, continuum):
        wf = random_workflow(50, seed=4, output_range=(0.0, 0.5))
        tight = EnergyAwareScheduler(slack=1.0).schedule(wf, continuum)
        loose = EnergyAwareScheduler(slack=8.0).schedule(wf, continuum)
        assert loose.busy_energy() <= tight.busy_energy() * 1.0001


class TestScheduleMetrics:
    def test_energy_accounting(self):
        continuum = Continuum(
            [Resource("r", ResourceKind.CLOUD, 10.0, idle_power=10.0,
                      busy_power=100.0)]
        )
        wf = Workflow("w", [Task("t", 50.0)])
        schedule = HeftScheduler().schedule(wf, continuum)
        # Duration 5 s: busy 500 J, no idle (single task spans makespan).
        assert schedule.busy_energy() == pytest.approx(500.0)
        assert schedule.total_energy() == pytest.approx(500.0)

    def test_idle_energy_added(self):
        continuum = Continuum(
            [
                Resource("fast", ResourceKind.HPC, 10.0, idle_power=10.0,
                         busy_power=100.0),
                Resource("idle", ResourceKind.EDGE, 1.0, idle_power=5.0,
                         busy_power=20.0),
            ]
        )
        wf = Workflow("w", [Task("t", 50.0)])
        schedule = HeftScheduler().schedule(wf, continuum)
        assert schedule["t"].resource == "fast"
        # Busy 500 J + idle node 5 W for 5 s = 525 J.
        assert schedule.total_energy() == pytest.approx(525.0)

    def test_carbon_weighted(self):
        continuum = Continuum(
            [Resource("r", ResourceKind.CLOUD, 10.0, idle_power=0.0,
                      busy_power=100.0, carbon_intensity=0.5)]
        )
        wf = Workflow("w", [Task("t", 50.0)])
        schedule = HeftScheduler().schedule(wf, continuum)
        assert schedule.carbon() == pytest.approx(250.0)


class TestScheduleCaching:
    def test_placements_computed_once(self, workflow, continuum):
        schedule = HeftScheduler().schedule(workflow, continuum)
        assert schedule.placements is schedule.placements  # cached tuple

    def test_makespan_computed_once(self, workflow, continuum):
        schedule = HeftScheduler().schedule(workflow, continuum)
        first = schedule.makespan
        assert schedule._makespan == first
        assert schedule.makespan == first


class TestResourceTimelineApi:
    def test_no_private_intervals_attribute(self):
        from repro.continuum.compile import ResourceTimeline

        timeline = ResourceTimeline()
        assert not hasattr(timeline, "_intervals")
        timeline.reserve(1.0, 2.0)
        assert timeline.last_finish == 3.0
        assert timeline.tail() == 3.0

    def test_append_mode_uses_public_tail(self, workflow, continuum):
        # insertion=False places each task after the resource's tail;
        # parity with the insertion path's validity is all we need here.
        schedule = HeftScheduler(insertion=False).schedule(workflow, continuum)
        schedule.validate()


class TestScheduleValidation:
    def test_missing_placement_detected(self, continuum):
        wf = Workflow("w", [Task("a", 1.0), Task("b", 1.0)])
        with pytest.raises(SchedulingError):
            Schedule(wf, continuum, {"a": TaskPlacement("a", "hpc-00", 0, 1)})

    def test_overlap_detected(self, continuum):
        wf = Workflow("w", [Task("a", 1.0), Task("b", 1.0)])
        schedule = Schedule(
            wf, continuum,
            {
                "a": TaskPlacement("a", "hpc-00", 0.0, 1.0),
                "b": TaskPlacement("b", "hpc-00", 0.5, 1.5),
            },
        )
        with pytest.raises(SchedulingError):
            schedule.validate()

    def test_dependency_violation_detected(self, continuum):
        wf = Workflow("w", [Task("a", 1.0, output_size=1.0), Task("b", 1.0)],
                      [("a", "b")])
        schedule = Schedule(
            wf, continuum,
            {
                "a": TaskPlacement("a", "hpc-00", 0.0, 1.0),
                "b": TaskPlacement("b", "cloud-00", 1.0, 2.0),  # ignores transfer
            },
        )
        with pytest.raises(SchedulingError):
            schedule.validate()
