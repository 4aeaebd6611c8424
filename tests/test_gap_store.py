"""The compiled kernels' free-gap store against the scalar timeline oracle.

``GapStore`` answers every earliest-slot query of the three placement
kernels.  It must give exactly the start ``ResourceTimeline.earliest_slot``
(``tests/oracles.py``) gives after the same reservations, although it
keeps only the usable free gaps, not the occupied intervals.  Exact
float equality everywhere.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.continuum.compile import GapStore, compile_problem
from repro.continuum.resources import default_continuum
from repro.continuum.scheduling import (
    EnergyAwareScheduler,
    HeftScheduler,
    RoundRobinScheduler,
)
from repro.continuum.simulate import simulate_schedule
from repro.continuum.workflow import random_workflow
from tests.oracles import ResourceTimeline, schedule_reference

N_ROWS = 3

#: (offset, dmin): small and large starts; a duration of 1e-7 vanishes
#: when added to 1e12, the "large start, tiny duration" case.
SCALES = [(0.0, 0.5), (0.0, 2.0), (0.0, 0.3), (1e12, 1e-7), (1e12, 3.0)]


@st.composite
def scenarios(draw):
    offset, dmin = draw(st.sampled_from(SCALES))
    # Whole numbers make gaps that fit a duration exactly, or are exactly
    # dmin wide, common; free floats make the general case.
    units = st.one_of(
        st.integers(1, 6).map(float), st.floats(1.0, 6.0, allow_nan=False)
    )
    times = st.one_of(
        st.integers(0, 80).map(float), st.floats(0.0, 80.0, allow_nan=False)
    )
    # ready: a time before, inside or after the busy span, or (negative)
    # the finish of an earlier reservation, for back-to-back placement.
    readies = st.one_of(times, st.integers(0, 60).map(lambda i: -1 - i))
    step = st.tuples(
        st.integers(0, N_ROWS - 1),
        readies,
        units,  # duration, in units of dmin
        st.booleans(),  # HEFT-style reservation of (start, finish - start)
    )
    steps = draw(st.lists(step, max_size=40))
    probes = draw(
        st.lists(st.tuples(readies, units), min_size=1, max_size=8)
    )
    return offset, dmin, steps, probes


def _slot(store, row, ready, dur):
    starts, gaps = store.slots(
        np.asarray([row]), np.asarray([ready]), np.asarray([dur])
    )
    return float(starts[0]), int(gaps[0])


def _book(store, timeline, start, dur):
    """Reserve ``[start, start + dur)``, a free slot, on row 0 of both."""
    store.reserve(0, _slot(store, 0, start, dur)[1], start, start + dur)
    timeline.reserve(start, dur)


def _assert_all_rows_match(store, timelines, ready, dur):
    """One vectorized query over every row equals the per-row oracle."""
    rows = np.arange(N_ROWS)
    starts, _ = store.slots(
        rows, np.full(N_ROWS, ready), np.full(N_ROWS, dur)
    )
    expected = [t.earliest_slot(ready, dur) for t in timelines]
    assert starts.tolist() == expected


class TestGapStoreOracle:
    @settings(max_examples=150, deadline=None)
    @given(scenarios())
    def test_slots_match_timeline_after_any_reservations(self, scenario):
        offset, dmin, steps, probes = scenario
        store = GapStore(np.full(N_ROWS, dmin), width=2)  # forces growth
        timelines = [ResourceTimeline() for _ in range(N_ROWS)]
        finishes = [offset]

        def resolve(ready):
            if ready < 0:
                return finishes[int(-ready - 1) % len(finishes)]
            return offset + ready

        for row, ready, units, heft in steps:
            ready = resolve(ready)
            dur = dmin * units
            start, gap = _slot(store, row, ready, dur)
            assert start == timelines[row].earliest_slot(ready, dur)
            finish = start + dur
            if heft:  # the stored finish can differ from finish by a rounding
                timelines[row].reserve(start, finish - start)
                stored = start + (finish - start)
            else:
                timelines[row].reserve(start, dur)
                stored = finish
            store.reserve(row, gap, start, stored)
            assert store.tail[row] == timelines[row].last_finish
            finishes.append(stored)
            for probe_ready, probe_units in probes:
                _assert_all_rows_match(
                    store, timelines, resolve(probe_ready), dmin * probe_units
                )

    @pytest.mark.parametrize("ready", [0.0, 1.0])
    def test_duration_that_fills_a_gap_exactly_fits(self, ready):
        store = GapStore(np.asarray([0.5]))
        timeline = ResourceTimeline()
        for start in (0.0, 3.0):  # busy [0, 1) and [3, 4): gap [1, 3)
            _book(store, timeline, start, 1.0)
        assert _slot(store, 0, ready, 2.0) == (1.0, 0)
        assert timeline.earliest_slot(ready, 2.0) == 1.0

    def test_gap_exactly_dmin_wide_is_kept(self):
        store = GapStore(np.asarray([1.0]))
        timeline = ResourceTimeline()
        for start in (0.0, 2.0):  # busy [0, 1) and [2, 3): gap [1, 2)
            _book(store, timeline, start, 1.0)
        assert store.count[0] == 2
        assert _slot(store, 0, 0.0, 1.0) == (1.0, 0)
        assert timeline.earliest_slot(0.0, 1.0) == 1.0

    def test_sliver_narrower_than_dmin_is_dropped(self):
        store = GapStore(np.asarray([2.0]))
        timeline = ResourceTimeline()
        for start in (0.0, 3.0):  # leaves the sliver [2, 3): 1 < dmin
            _book(store, timeline, start, 2.0)
        assert store.count[0] == 1  # only the tail gap (5, inf) is usable
        for ready in (0.0, 1.0, 2.0, 2.5, 5.0, 9.0):
            assert _slot(store, 0, ready, 2.0)[0] == timeline.earliest_slot(
                ready, 2.0
            )

    def test_storage_does_not_grow_with_back_to_back_reservations(self):
        store = GapStore(np.asarray([1.0]), width=4)
        start = 0.0
        for _ in range(500):
            slot, gap = _slot(store, 0, start, 1.0)
            store.reserve(0, gap, slot, slot + 1.0)
            start = slot + 1.0
        assert store.count[0] == 1
        assert store.a.shape == (1, 4)
        assert store.tail[0] == 500.0


def _skewed_problem():
    # One fast node beside 30 slow ones: HEFT piles work on the HPC node
    # and leaves gaps behind on the edge nodes.
    return (
        random_workflow(400, seed=21, edge_probability=0.02),
        default_continuum(n_hpc=1, n_cloud=0, n_edge=30, seed=21),
    )


def _single_node_problem():
    return (
        random_workflow(150, seed=22, edge_probability=0.05),
        default_continuum(n_hpc=1, n_cloud=0, n_edge=0, seed=22),
    )


SCHEDULERS = [
    pytest.param(HeftScheduler(), id="heft-insertion"),
    pytest.param(HeftScheduler(insertion=False), id="heft-append"),
    pytest.param(EnergyAwareScheduler(slack=1.0), id="energy-1.0"),
    pytest.param(EnergyAwareScheduler(slack=8.0), id="energy-8.0"),
    pytest.param(RoundRobinScheduler(), id="round-robin"),
]


class TestKernelEdges:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize(
        "make", [_skewed_problem, _single_node_problem],
        ids=["skewed-fleet", "single-node"],
    )
    def test_matches_reference(self, make, scheduler):
        workflow, continuum = make()
        compiled = scheduler.schedule(workflow, continuum)
        reference = schedule_reference(scheduler, workflow, continuum)
        for key in workflow.task_keys:
            assert compiled[key] == reference[key]

    def test_plan_never_builds_the_duration_matrix(self):
        workflow, continuum = _skewed_problem()
        problem = compile_problem(workflow, continuum)
        for scheduler in (
            HeftScheduler(), EnergyAwareScheduler(), RoundRobinScheduler()
        ):
            schedule = scheduler.schedule(workflow, continuum, problem=problem)
            schedule.validate(problem=problem)
            simulate_schedule(schedule, jitter=0.1, seed=3, problem=problem)
        assert problem._duration is None
