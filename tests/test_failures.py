"""Unit tests for failure injection."""

import numpy as np
import pytest

from repro.continuum.failures import simulate_with_failures
from repro.continuum.montecarlo import SimulationContext, replicate_once
from repro.continuum.resources import default_continuum
from repro.continuum.scheduling import HeftScheduler, Schedule, TaskPlacement
from repro.continuum.simulate import simulate_schedule
from repro.continuum.workflow import Task, Workflow, layered_workflow, random_workflow
from repro.errors import ContinuumError
from repro.telemetry import Telemetry
from tests.oracles import _FailureClock, _replay


@pytest.fixture(scope="module")
def schedule():
    wf = random_workflow(50, seed=4)
    continuum = default_continuum(seed=4)
    return HeftScheduler().schedule(wf, continuum)


class TestFailureFreeLimit:
    def test_huge_mtbf_reproduces_plan(self, schedule):
        trace = simulate_with_failures(
            schedule, mtbf=1e9, repair_time=1.0, seed=0
        )
        assert trace.n_failures == 0
        assert trace.n_migrations == 0
        assert trace.lost_work == 0.0
        assert trace.makespan == pytest.approx(schedule.makespan, rel=1e-6)


class TestUnderFailures:
    @pytest.mark.parametrize("policy", ["restart", "migrate"])
    def test_all_tasks_complete(self, schedule, policy):
        trace = simulate_with_failures(
            schedule, mtbf=2.0, repair_time=0.5, policy=policy, seed=7
        )
        assert len(trace.placements) == len(schedule.workflow)
        assert trace.n_failures > 0
        assert trace.slowdown > 1.0
        assert trace.lost_work > 0.0

    @pytest.mark.parametrize("policy", ["restart", "migrate"])
    def test_dependencies_respected(self, schedule, policy):
        trace = simulate_with_failures(
            schedule, mtbf=2.0, repair_time=0.5, policy=policy, seed=3
        )
        start = {p.task: p.start for p in trace.placements}
        finish = {p.task: p.finish for p in trace.placements}
        for src, dst in schedule.workflow.edges:
            assert start[dst] >= finish[src] - 1e-9

    @pytest.mark.parametrize("policy", ["restart", "migrate"])
    def test_no_resource_overlap(self, schedule, policy):
        trace = simulate_with_failures(
            schedule, mtbf=1.5, repair_time=0.2, policy=policy, seed=5
        )
        by_resource: dict[str, list] = {}
        for p in trace.placements:
            by_resource.setdefault(p.resource, []).append(p)
        for slots in by_resource.values():
            slots.sort(key=lambda p: p.start)
            for a, b in zip(slots, slots[1:]):
                assert b.start >= a.finish - 1e-9

    def test_restart_never_migrates(self, schedule):
        trace = simulate_with_failures(
            schedule, mtbf=2.0, repair_time=0.5, policy="restart", seed=7
        )
        assert trace.n_migrations == 0

    def test_migration_beats_restart_when_communication_is_light(self):
        # Decisions diverge after the first failure, so the comparison is
        # statistical over seeds.  Migration only pays when the migrated
        # task's data gravity is small — with heavy outputs the inter-tier
        # transfers eat the gain — so the claim is made on a
        # communication-light workload.
        import numpy as np

        wf = random_workflow(50, seed=4, output_range=(0.0, 0.1))
        schedule = HeftScheduler().schedule(wf, default_continuum(seed=4))
        restarts, migrates = [], []
        for seed in range(15):
            restarts.append(
                simulate_with_failures(
                    schedule, mtbf=2.0, repair_time=2.0,
                    policy="restart", seed=seed,
                ).makespan
            )
            migrates.append(
                simulate_with_failures(
                    schedule, mtbf=2.0, repair_time=2.0,
                    policy="migrate", seed=seed,
                ).makespan
            )
        assert np.mean(migrates) < np.mean(restarts)

    def test_deterministic_under_seed(self, schedule):
        a = simulate_with_failures(schedule, mtbf=2.0, repair_time=0.5, seed=9)
        b = simulate_with_failures(schedule, mtbf=2.0, repair_time=0.5, seed=9)
        assert a.makespan == b.makespan
        assert a.n_failures == b.n_failures


class TestFailureClock:
    """The per-resource Poisson clock, especially idle-time semantics."""

    def test_initial_draws_are_per_resource_exponentials(self):
        rng = np.random.default_rng(0)
        clock = _FailureClock(("a", "b"), 10.0, rng)
        expected = np.random.default_rng(0).exponential(10.0, size=2)
        assert clock.next_failure("a") == expected[0]
        assert clock.next_failure("b") == expected[1]
        assert clock.consumed == 0

    def test_consume_advances_one_clock_only(self):
        clock = _FailureClock(("a", "b"), 10.0, np.random.default_rng(1))
        before_a = clock.next_failure("a")
        before_b = clock.next_failure("b")
        clock.consume("a")
        assert clock.next_failure("a") > before_a
        assert clock.next_failure("b") == before_b
        assert clock.consumed == 1

    def test_advance_past_skips_idle_failures(self):
        """Failures that elapsed while a resource sat idle are harmless
        reboots: they are consumed (counted) and never kill an attempt."""
        clock = _FailureClock(("a",), 5.0, np.random.default_rng(2))
        horizon = clock.next_failure("a") + 40.0
        clock.advance_past("a", horizon)
        assert clock.next_failure("a") >= horizon
        assert clock.consumed >= 1

    def test_advance_past_before_next_failure_is_a_no_op(self):
        clock = _FailureClock(("a",), 5.0, np.random.default_rng(3))
        pending = clock.next_failure("a")
        clock.advance_past("a", pending * 0.5)
        assert clock.next_failure("a") == pending
        assert clock.consumed == 0

    def test_advance_past_exact_boundary_keeps_failure_pending(self):
        """`advance_past` uses strict <: a failure at exactly the attempt
        start stays pending and can still kill the attempt."""
        clock = _FailureClock(("a",), 5.0, np.random.default_rng(4))
        pending = clock.next_failure("a")
        clock.advance_past("a", pending)
        assert clock.next_failure("a") == pending
        assert clock.consumed == 0

    def test_idle_failures_do_not_inflate_retry_count(self):
        """A single short task on a schedule with long idle gaps: idle
        failures fire (consumed), but n_failures counts only killed
        attempts."""
        wf = layered_workflow(2, 1, work=1.0, output_size=0.0)
        continuum = default_continuum(n_hpc=1, n_cloud=0, n_edge=0, seed=0)
        schedule = HeftScheduler().schedule(wf, continuum)
        trace = simulate_with_failures(
            schedule, mtbf=1e9, repair_time=0.0, seed=0
        )
        assert trace.n_failures == 0


class TestNearZeroMtbf:
    """Retry/migration paths under an MTBF close to task durations."""

    @pytest.fixture(scope="class")
    def light_schedule(self):
        # Homogeneous fast nodes keep every task duration well under 2×
        # the MTBF below: failures are frequent but each retry keeps a
        # fair success chance, so the replay terminates inside
        # max_attempts.
        wf = random_workflow(30, seed=8, output_range=(0.0, 0.05))
        continuum = default_continuum(n_hpc=3, n_cloud=0, n_edge=0, seed=8)
        return HeftScheduler().schedule(wf, continuum)

    def test_restart_retries_until_success(self, light_schedule):
        trace = simulate_with_failures(
            light_schedule, mtbf=0.05, repair_time=0.01,
            policy="restart", seed=2, max_attempts=500,
        )
        assert trace.n_failures > len(light_schedule.workflow)
        assert trace.n_migrations == 0
        assert trace.lost_work > 0.0
        assert trace.slowdown > 1.0
        assert len(trace.placements) == len(light_schedule.workflow)

    def test_migrate_actually_migrates(self, light_schedule):
        trace = simulate_with_failures(
            light_schedule, mtbf=0.05, repair_time=5.0,
            policy="migrate", seed=2, max_attempts=500,
        )
        assert trace.n_failures > 0
        assert trace.n_migrations > 0
        assert len(trace.placements) == len(light_schedule.workflow)

    def test_migrated_placements_are_feasible(self):
        wf = random_workflow(30, seed=8, output_range=(0.0, 0.05))
        # Pin a requirement so only HPC nodes are feasible; migration
        # must never place the task outside the feasible set.
        from repro.continuum.workflow import Task, Workflow

        pinned = Workflow(
            "pinned",
            [
                Task(t.key, t.work, t.output_size, frozenset({"gpu"}))
                for t in wf
            ],
            list(wf.edges),
        )
        continuum = default_continuum(seed=8)
        schedule = HeftScheduler().schedule(pinned, continuum)
        trace = simulate_with_failures(
            schedule, mtbf=0.5, repair_time=5.0,
            policy="migrate", seed=3, max_attempts=500,
        )
        gpu_nodes = {
            r.key for r in continuum if r.supports(frozenset({"gpu"}))
        }
        assert trace.n_failures > 0
        assert all(p.resource in gpu_nodes for p in trace.placements)

    def test_max_attempts_still_guards_migrate(self, light_schedule):
        with pytest.raises(ContinuumError):
            simulate_with_failures(
                light_schedule, mtbf=1e-6, repair_time=0.0,
                policy="migrate", seed=1, max_attempts=5,
            )


class TestRngParameter:
    def test_rng_equivalent_to_seed(self, schedule):
        by_seed = simulate_with_failures(
            schedule, mtbf=2.0, repair_time=0.5, seed=9
        )
        by_rng = simulate_with_failures(
            schedule, mtbf=2.0, repair_time=0.5,
            rng=np.random.default_rng(9),
        )
        assert by_rng.makespan == by_seed.makespan
        assert by_rng.n_failures == by_seed.n_failures
        assert by_rng.lost_work == by_seed.lost_work

    def test_seed_and_rng_mutually_exclusive(self, schedule):
        with pytest.raises(ContinuumError, match="not both"):
            simulate_with_failures(
                schedule, mtbf=2.0, repair_time=0.5,
                seed=0, rng=np.random.default_rng(0),
            )


class TestValidation:
    def test_bad_parameters(self, schedule):
        with pytest.raises(ContinuumError):
            simulate_with_failures(schedule, mtbf=0.0, repair_time=1.0)
        with pytest.raises(ContinuumError):
            simulate_with_failures(schedule, mtbf=1.0, repair_time=-1.0)
        with pytest.raises(ContinuumError):
            simulate_with_failures(schedule, mtbf=1.0, repair_time=0.0,
                                   policy="pray")
        with pytest.raises(ContinuumError):
            simulate_with_failures(schedule, mtbf=1.0, repair_time=0.0,
                                   max_attempts=0)

    def test_pathological_mtbf_aborts(self, schedule):
        # MTBF far below task durations: restarts can never finish.
        with pytest.raises(ContinuumError):
            simulate_with_failures(
                schedule, mtbf=1e-6, repair_time=0.0,
                policy="restart", seed=1, max_attempts=10,
            )


class TestOracleParity:
    """The kernel-backed replay against the string-keyed replay it
    replaced: same placements, counts, lost work and telemetry counters,
    bit for bit."""

    @staticmethod
    def _assert_matches(schedule, *, mtbf, repair_time, policy, seed,
                        max_attempts=50):
        tel = Telemetry()
        trace = simulate_with_failures(
            schedule, mtbf=mtbf, repair_time=repair_time, policy=policy,
            seed=seed, max_attempts=max_attempts, telemetry=tel,
        )
        expected, injected, events = _replay(
            schedule, mtbf, repair_time, policy,
            np.random.default_rng(seed), max_attempts,
        )
        assert trace.placements == expected.placements
        assert trace.makespan == expected.makespan
        assert trace.n_failures == expected.n_failures
        assert trace.n_migrations == expected.n_migrations
        assert trace.lost_work == expected.lost_work
        counter = tel.metrics.counter
        assert counter("sim.failures_injected").value == injected
        assert counter("sim.events").value == events
        killed = [e for e in tel.log.events() if e.event == "sim.failure"]
        assert len(killed) == expected.n_failures
        assert sum(e.fields["lost"] for e in killed) == expected.lost_work
        return injected - expected.n_failures  # idle reboots

    @pytest.mark.parametrize("policy", ["restart", "migrate"])
    def test_matches_string_keyed_replay(self, schedule, policy):
        idle_reboots = 0
        for mtbf in (1.5, 2.0, 10.0, 60.0):
            for seed in range(4):
                idle_reboots += self._assert_matches(
                    schedule, mtbf=mtbf, repair_time=0.5, policy=policy,
                    seed=seed,
                )
        assert idle_reboots > 0  # the idle-skip count was exercised

    def test_matches_under_frequent_migration(self):
        wf = random_workflow(30, seed=8, output_range=(0.0, 0.05))
        continuum = default_continuum(n_hpc=3, n_cloud=0, n_edge=0, seed=8)
        schedule = HeftScheduler().schedule(wf, continuum)
        for seed in range(3):
            self._assert_matches(
                schedule, mtbf=0.05, repair_time=5.0, policy="migrate",
                seed=seed, max_attempts=500,
            )


class TestNonTopologicalPlan:
    """An unvalidated plan that starts ``b`` at t=0 on ``cloud-00``, ahead
    of its predecessor ``a`` on ``hpc-00``."""

    @pytest.fixture
    def plan(self):
        wf = Workflow(
            "w",
            [Task("a", 1.0, output_size=2.0), Task("b", 1.0)],
            [("a", "b")],
        )
        continuum = default_continuum(n_hpc=1, n_cloud=1, n_edge=1, seed=5)
        return Schedule(
            wf, continuum,
            {
                "a": TaskPlacement("a", "hpc-00", 1.0, 2.0),
                "b": TaskPlacement("b", "cloud-00", 0.0, 1.0),
            },
        )

    def test_event_loop_follows_the_data(self, plan):
        # The event simulator starts b only once a's output has arrived.
        assert simulate_schedule(plan).makespan == pytest.approx(3.77, abs=5e-3)

    def test_failure_replay_names_the_late_predecessor(self, plan):
        with pytest.raises(ContinuumError, match="'b' before its predecessor 'a'"):
            simulate_with_failures(plan, mtbf=1e9, repair_time=0.0, seed=0)

    @pytest.mark.parametrize("mtbf", [None, 1e9])
    def test_monte_carlo_replay_names_the_late_predecessor(self, plan, mtbf):
        with pytest.raises(ContinuumError, match="'b' before its predecessor 'a'"):
            replicate_once(
                SimulationContext(plan), mtbf=mtbf, rng=np.random.default_rng(0)
            )
