"""Unit tests for the discrete-event schedule executor."""

import pytest

from repro.continuum.resources import default_continuum
from repro.continuum.scheduling import HeftScheduler, RoundRobinScheduler
from repro.continuum.simulate import simulate_schedule
from repro.continuum.workflow import layered_workflow, random_workflow
from repro.errors import ContinuumError


@pytest.fixture(scope="module")
def schedule():
    wf = random_workflow(50, seed=6, edge_probability=0.15)
    continuum = default_continuum(seed=6)
    return HeftScheduler().schedule(wf, continuum)


class TestNoJitter:
    def test_reproduces_plan_makespan(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.0)
        assert trace.makespan == pytest.approx(schedule.makespan, rel=1e-9)
        assert trace.slowdown == pytest.approx(1.0)

    def test_same_resources_as_plan(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.0)
        planned = {p.task: p.resource for p in schedule.placements}
        realized = {p.task: p.resource for p in trace.placements}
        assert planned == realized

    def test_energy_matches_plan(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.0)
        assert trace.busy_energy == pytest.approx(schedule.busy_energy(), rel=1e-9)

    def test_round_robin_plan_also_executes(self):
        wf = layered_workflow(3, 4)
        continuum = default_continuum(seed=1)
        schedule = RoundRobinScheduler().schedule(wf, continuum)
        trace = simulate_schedule(schedule, jitter=0.0)
        assert trace.slowdown == pytest.approx(1.0, rel=1e-9)


class TestJitter:
    def test_deterministic_under_seed(self, schedule):
        a = simulate_schedule(schedule, jitter=0.3, seed=1)
        b = simulate_schedule(schedule, jitter=0.3, seed=1)
        assert a.makespan == b.makespan

    def test_all_tasks_executed(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.5, seed=2)
        assert len(trace.placements) == len(schedule.workflow)

    def test_dependencies_respected_under_jitter(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.5, seed=3)
        finish = {p.task: p.finish for p in trace.placements}
        start = {p.task: p.start for p in trace.placements}
        wf = schedule.workflow
        for src, dst in wf.edges:
            assert start[dst] >= finish[src] - 1e-9

    def test_no_overlap_per_resource_under_jitter(self, schedule):
        trace = simulate_schedule(schedule, jitter=0.4, seed=4)
        by_resource = {}
        for p in trace.placements:
            by_resource.setdefault(p.resource, []).append(p)
        for slots in by_resource.values():
            slots.sort(key=lambda p: p.start)
            for a, b in zip(slots, slots[1:]):
                assert b.start >= a.finish - 1e-9


class TestBatchedJitter:
    def test_batched_draw_matches_sequential_stream(self):
        # The compiled simulator draws all jitter factors in one
        # rng.lognormal(size=n) call; NumPy's Generator consumes the
        # stream identically to n scalar draws, so traces are unchanged
        # bit-for-bit.
        import numpy as np

        batched = np.random.default_rng(3).lognormal(
            mean=0.0, sigma=0.4, size=64
        )
        rng = np.random.default_rng(3)
        sequential = [
            float(rng.lognormal(mean=0.0, sigma=0.4)) for _ in range(64)
        ]
        assert batched.tolist() == sequential

    @pytest.mark.parametrize("jitter", [0.0, 0.35])
    def test_trace_matches_reference_loop(self, schedule, jitter):
        import numpy as np

        from tests.oracles import _simulate_reference

        compiled = simulate_schedule(schedule, jitter=jitter, seed=9)
        reference, _ = _simulate_reference(
            schedule, jitter, np.random.default_rng(9)
        )
        assert compiled.placements == reference.placements
        assert compiled.makespan == reference.makespan
        assert compiled.busy_energy == reference.busy_energy


class TestValidation:
    def test_negative_jitter(self, schedule):
        with pytest.raises(ContinuumError):
            simulate_schedule(schedule, jitter=-0.1)

    def test_seed_and_rng_exclusive(self, schedule):
        import numpy as np

        with pytest.raises(ContinuumError):
            simulate_schedule(
                schedule, jitter=0.1, seed=1, rng=np.random.default_rng(1)
            )
