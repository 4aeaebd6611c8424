"""Unit tests for the Monte-Carlo sweep engine."""

import math

import numpy as np
import pytest

from repro.continuum import (
    CellStats,
    HeftScheduler,
    RunningStat,
    SimulationContext,
    SweepSpec,
    build_sweep_spec,
    continuum_from_dict,
    continuum_to_dict,
    default_continuum,
    random_workflow,
    replicate_once,
    run_sweep,
    simulate_schedule,
    simulate_with_failures,
)
from repro.errors import ContinuumError, MonteCarloError
from repro.pipeline import ArtifactCache


@pytest.fixture(scope="module")
def continuum():
    return default_continuum(n_hpc=2, n_cloud=3, n_edge=5, seed=11)


@pytest.fixture(scope="module")
def workflow():
    return random_workflow(60, seed=11, output_range=(0.0, 0.3))


@pytest.fixture(scope="module")
def schedule(workflow, continuum):
    return HeftScheduler().schedule(workflow, continuum)


@pytest.fixture(scope="module")
def context(schedule):
    return SimulationContext(schedule)


class TestReplicationEquivalence:
    """The batched replay must be bit-identical to the one-shot simulators
    — this anchors every speedup claim to the reference semantics."""

    @pytest.mark.parametrize("policy", ["restart", "migrate"])
    def test_matches_simulate_with_failures(self, schedule, context, policy):
        for seed in range(10):
            trace = simulate_with_failures(
                schedule, mtbf=60.0, repair_time=2.0, policy=policy,
                seed=seed,
            )
            result = replicate_once(
                context, mtbf=60.0, repair_time=2.0, policy=policy,
                rng=np.random.default_rng(seed),
            )
            assert result.makespan == trace.makespan
            assert result.slowdown == trace.slowdown
            assert result.retries == trace.n_failures
            assert result.migrations == trace.n_migrations
            assert result.lost_work == trace.lost_work

    def test_matches_simulate_schedule_jitter(self, schedule, context):
        for seed in range(10):
            trace = simulate_schedule(schedule, jitter=0.25, seed=seed)
            result = replicate_once(
                context, jitter=0.25, rng=np.random.default_rng(seed)
            )
            assert result.makespan == trace.makespan

    def test_no_noise_reproduces_plan(self, schedule, context):
        result = replicate_once(context, rng=np.random.default_rng(0))
        assert result.makespan == schedule.makespan
        assert result.slowdown == 1.0
        assert result.retries == 0
        assert result.migrations == 0

    def test_near_zero_mtbf_aborts(self, context):
        with pytest.raises(ContinuumError):
            replicate_once(
                context, mtbf=1e-6, repair_time=0.0, max_attempts=5,
                rng=np.random.default_rng(0),
            )

    def test_parameter_validation(self, context):
        rng = np.random.default_rng(0)
        with pytest.raises(MonteCarloError):
            replicate_once(context, mtbf=0.0, rng=rng)
        with pytest.raises(MonteCarloError):
            replicate_once(context, mtbf=1.0, repair_time=-1.0, rng=rng)
        with pytest.raises(MonteCarloError):
            replicate_once(context, policy="pray", rng=rng)
        with pytest.raises(MonteCarloError):
            replicate_once(context, jitter=-0.1, rng=rng)
        with pytest.raises(MonteCarloError):
            replicate_once(context, max_attempts=0, rng=rng)


class TestRunningStat:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(0.0, 1.0, size=500)
        stat = RunningStat()
        for v in values:
            stat.add(float(v))
        assert stat.count == 500
        assert stat.mean == pytest.approx(values.mean(), rel=1e-12)
        assert stat.variance == pytest.approx(values.var(ddof=1), rel=1e-12)
        assert stat.std == pytest.approx(values.std(ddof=1), rel=1e-12)
        assert stat.min == values.min()
        assert stat.max == values.max()

    def test_degenerate_counts(self):
        stat = RunningStat()
        assert stat.variance == 0.0
        stat.add(4.0)
        assert stat.mean == 4.0
        assert stat.variance == 0.0


class TestSweepSpecValidation:
    def test_rejects_empty_and_unknown(self, workflow, continuum):
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(), continuum=continuum)
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      schedulers=("alien",))
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      replications=0)
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      mtbfs=(0.0,))
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      policies=("pray",))
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      chunk_size=0)

    def test_rejects_duplicate_workflow_names(self, workflow, continuum):
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow, workflow), continuum=continuum)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_jitter_and_repair_time(
        self, workflow, continuum, context, value
    ):
        for grid in (f"jitter={value}", f"jitter=0,{value}"):
            with pytest.raises(MonteCarloError, match="jitter"):
                build_sweep_spec(grid=grid, fleet=1, replications=2)
        with pytest.raises(MonteCarloError, match="jitter"):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      jitters=(value,))
        with pytest.raises(MonteCarloError, match="repair_time"):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      mtbfs=(40.0,), repair_time=value)
        rng = np.random.default_rng(0)
        with pytest.raises(MonteCarloError, match="jitter"):
            replicate_once(context, jitter=value, rng=rng)
        with pytest.raises(MonteCarloError, match="repair_time"):
            replicate_once(context, mtbf=40.0, repair_time=value, rng=rng)

    @pytest.mark.parametrize("grid", [
        "mtbf=50,50",
        "jitter=0.1,0.10",
        "mtbf=none,none",
        "scheduler=heft,round_robin,heft",
        "policy=restart,restart",
    ])
    def test_rejects_repeated_axis_values(self, grid):
        with pytest.raises(MonteCarloError, match="repeat"):
            build_sweep_spec(grid=grid, fleet=1, replications=2)

    def test_cells_enumerate_full_grid(self, workflow, continuum):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft", "energy"), mtbfs=(None, 50.0),
            jitters=(0.0, 0.1), policies=("restart", "migrate"),
        )
        cells = spec.cells()
        assert len(cells) == 16
        assert len({c.cell_id for c in cells}) == 16


class TestSweepDeterminism:
    @pytest.fixture(scope="class")
    def spec(self, workflow, continuum):
        return SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft", "round_robin"), mtbfs=(None, 50.0),
            jitters=(0.0, 0.1), policies=("restart",),
            replications=20, seed=7, chunk_size=7,
        )

    def test_parallel_bit_identical_to_serial(self, spec):
        serial = run_sweep(spec, workers=0)
        parallel = run_sweep(spec, workers=2)
        assert serial.to_dict()["cells"] == parallel.to_dict()["cells"]

    def test_chunking_never_changes_results(self, spec):
        rechunked = SweepSpec(
            workflows=spec.workflows, continuum=spec.continuum,
            schedulers=spec.schedulers, mtbfs=spec.mtbfs,
            jitters=spec.jitters, policies=spec.policies,
            replications=spec.replications, seed=spec.seed, chunk_size=3,
        )
        assert (
            run_sweep(spec).to_dict()["cells"]
            == run_sweep(rechunked).to_dict()["cells"]
        )

    def test_cell_streams_do_not_depend_on_grid_shape(
        self, workflow, continuum, spec
    ):
        """A cell's statistics are content-addressed: the same cell inside
        a smaller grid produces bit-identical numbers."""
        small = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft",), mtbfs=(50.0,), jitters=(0.0,),
            policies=("restart",), replications=20, seed=7,
        )
        full = {c.cell.cell_id: c for c in run_sweep(spec).cells}
        for stats in run_sweep(small).cells:
            assert stats.to_dict() == full[stats.cell.cell_id].to_dict()

    def test_seed_changes_results(self, spec, workflow, continuum):
        reseeded = SweepSpec(
            workflows=spec.workflows, continuum=spec.continuum,
            schedulers=spec.schedulers, mtbfs=spec.mtbfs,
            jitters=spec.jitters, policies=spec.policies,
            replications=spec.replications, seed=8,
        )
        a = run_sweep(spec).cells
        b = run_sweep(reseeded).cells
        noisy = [c.cell_id for c in spec.cells() if c.mtbf or c.jitter]
        assert any(
            x.metrics["makespan"].mean != y.metrics["makespan"].mean
            for x, y in zip(a, b)
            if x.cell.cell_id in noisy
        )

    def test_replication_workers_invalid(self, spec):
        with pytest.raises(MonteCarloError):
            run_sweep(spec, workers=-1)


class TestSweepAggregation:
    def test_summaries_match_naive_replications(self, workflow, continuum):
        """The streamed Welford aggregate equals numpy over the raw
        per-replication values recomputed via the one-shot simulator."""
        from repro.continuum.montecarlo import (
            _cell_identity,
            _continuum_fingerprint,
            _workflow_fingerprint,
        )
        from repro.stats.rounds import round_rng, unit_entropy

        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft",), mtbfs=(40.0,), policies=("restart",),
            replications=60, seed=3,
        )
        result = run_sweep(spec)
        stats = result.cells[0]

        schedule = HeftScheduler().schedule(workflow, continuum)
        cell = spec.cells()[0]
        entropy = unit_entropy(_cell_identity(
            spec, cell,
            {workflow.name: _workflow_fingerprint(workflow)},
            _continuum_fingerprint(continuum),
        ))
        makespans = []
        retries = []
        for rep in range(spec.replications):
            trace = simulate_with_failures(
                schedule, mtbf=40.0, repair_time=spec.repair_time,
                policy="restart", rng=round_rng(entropy, rep),
            )
            makespans.append(trace.makespan)
            retries.append(trace.n_failures)
        summary = stats.metrics["makespan"]
        assert summary.count == 60
        assert summary.mean == pytest.approx(np.mean(makespans), rel=1e-12)
        assert summary.std == pytest.approx(
            np.std(makespans, ddof=1), rel=1e-9
        )
        assert summary.min == min(makespans)
        assert summary.max == max(makespans)
        assert stats.metrics["retries"].mean == pytest.approx(
            np.mean(retries), rel=1e-12
        )

    def test_prefix_stability_in_replications(self, workflow, continuum):
        """The first R replications of a larger run are the same draws —
        min/max over a prefix are bounded by the superset's."""
        base = dict(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft",), mtbfs=(40.0,), seed=3,
        )
        small = run_sweep(SweepSpec(replications=20, **base)).cells[0]
        big = run_sweep(SweepSpec(replications=40, **base)).cells[0]
        assert small.metrics["makespan"].min >= big.metrics["makespan"].min
        assert small.metrics["makespan"].max <= big.metrics["makespan"].max

    def test_cellstats_round_trips(self, workflow, continuum):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=10, seed=1,
        )
        stats = run_sweep(spec).cells[0]
        assert CellStats.from_dict(stats.to_dict()) == stats


class TestSweepCache:
    def test_warm_cache_runs_zero_simulations(self, workflow, continuum):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft", "round_robin"), mtbfs=(None, 50.0),
            replications=15, seed=2,
        )
        cache = ArtifactCache()
        cold = run_sweep(spec, cache=cache)
        assert cold.n_replications_run == 4 * 15
        assert len(cold.computed) == 4 and not cold.cached
        warm = run_sweep(spec, cache=cache)
        assert warm.n_replications_run == 0
        assert len(warm.cached) == 4 and not warm.computed
        assert warm.to_dict()["cells"] == cold.to_dict()["cells"]

    def test_on_disk_cache_survives_processes(self, workflow, continuum,
                                              tmp_path):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=10, seed=4,
        )
        cold = run_sweep(spec, cache=ArtifactCache(tmp_path))
        warm = run_sweep(spec, cache=ArtifactCache(tmp_path))
        assert warm.n_replications_run == 0
        assert warm.to_dict()["cells"] == cold.to_dict()["cells"]

    def test_changed_spec_misses(self, workflow, continuum):
        cache = ArtifactCache()
        base = dict(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=10,
        )
        run_sweep(SweepSpec(seed=1, **base), cache=cache)
        reseeded = run_sweep(SweepSpec(seed=2, **base), cache=cache)
        assert reseeded.n_replications_run == 10
        grown = run_sweep(
            SweepSpec(seed=1, **{**base, "replications": 11}), cache=cache
        )
        assert grown.n_replications_run == 11


class TestSweepIntegration:
    def test_telemetry_counters_and_span(self, workflow, continuum):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=12, seed=0,
        )
        run_sweep(spec, cache=ArtifactCache(), telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["mc.replications"]["value"] == 12
        assert snapshot["mc.cells_computed"]["value"] == 1
        names = {span.name for span in telemetry.tracer.spans()}
        assert "sweep" in names
        assert "schedule.heft" in names

    def test_registry_records_sweep(self, workflow, continuum, tmp_path):
        from repro.obs import RunRegistry

        registry = RunRegistry(tmp_path)
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=8, seed=0,
        )
        run_sweep(spec, registry=registry)
        record = registry.last(1)[0]
        assert record.kind == "mc-sweep"
        assert record.metrics["mc.replications"] == 8.0
        assert record.artifacts["cells"].n_items == 1
        assert record.config_digest

    def test_sweep_record_artifact_digest_is_deterministic(
        self, workflow, continuum, tmp_path
    ):
        from repro.obs import RunRegistry

        registry = RunRegistry(tmp_path)
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            mtbfs=(50.0,), replications=8, seed=0,
        )
        run_sweep(spec, registry=registry)
        run_sweep(spec, registry=registry)
        first, second = registry.last(2)
        assert (
            first.artifacts["cells"].sha256
            == second.artifacts["cells"].sha256
        )


class TestContinuumSerialization:
    def test_round_trip(self, continuum):
        clone = continuum_from_dict(continuum_to_dict(continuum))
        assert clone.keys == continuum.keys
        assert np.array_equal(clone.bandwidth, continuum.bandwidth)
        assert np.array_equal(clone.latency, continuum.latency)
        for key in continuum.keys:
            assert clone[key] == continuum[key]

    def test_dict_is_strict_json(self, continuum):
        import json

        payload = json.dumps(continuum_to_dict(continuum), allow_nan=False)
        assert continuum_from_dict(json.loads(payload)).keys == continuum.keys

    def test_version_and_malformed_rejected(self, continuum):
        from repro.errors import SerializationError

        with pytest.raises(SerializationError):
            continuum_from_dict({"format_version": 99})
        bad = continuum_to_dict(continuum)
        del bad["resources"]
        with pytest.raises(SerializationError):
            continuum_from_dict(bad)


# -- mergeable aggregation (engine v2) ----------------------------------------


class TestQuantileSketch:
    """The sketch behind every cell's quantiles: alpha-bounded error and
    an exact, associative merge (the distribution-ready guarantee)."""

    def test_error_bound_at_scale(self):
        from repro.continuum import QuantileSketch

        rng = np.random.default_rng(9)
        values = rng.lognormal(1.0, 1.2, size=20_000)
        sketch = QuantileSketch(0.01)
        for v in values:
            sketch.add(float(v))
        assert sketch.count == values.size
        for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            exact = float(np.quantile(values, q))
            # alpha-relative against a true sample value at the rank;
            # 2*alpha absorbs np.quantile's interpolation between
            # neighboring order statistics.
            assert abs(sketch.quantile(q) - exact) <= 2 * 0.01 * exact

    def test_signed_and_zero_values(self):
        from repro.continuum import QuantileSketch

        sketch = QuantileSketch(0.01)
        for v in (-100.0, -1.0, 0.0, 0.0, 1.0, 100.0):
            sketch.add(v)
        assert sketch.count == 6
        assert sketch.quantile(0.0) == pytest.approx(-100.0, rel=0.01)
        assert sketch.quantile(0.5) == 0.0
        assert sketch.quantile(1.0) == pytest.approx(100.0, rel=0.01)

    def test_merge_exactness_on_random_split(self):
        from repro.continuum import QuantileSketch

        rng = np.random.default_rng(11)
        values = rng.normal(0.0, 50.0, size=5000)
        whole = QuantileSketch(0.01)
        parts = [QuantileSketch(0.01) for _ in range(7)]
        owners = rng.integers(0, 7, size=values.size)
        for v, owner in zip(values, owners):
            whole.add(float(v))
            parts[owner].add(float(v))
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        assert merged == whole
        assert merged.to_dict() == whole.to_dict()

    def test_round_trip_and_canonical_payload(self):
        from repro.continuum import QuantileSketch

        sketch = QuantileSketch(0.01)
        for v in (0.5, -3.0, 0.0, 42.0, 0.5):
            sketch.add(v)
        clone = QuantileSketch.from_dict(sketch.to_dict())
        assert clone == sketch
        assert clone.to_dict() == sketch.to_dict()

    def test_validation(self):
        from repro.continuum import QuantileSketch
        from repro.errors import StatsError

        with pytest.raises(StatsError):
            QuantileSketch(0.0)
        with pytest.raises(StatsError):
            QuantileSketch(1.0)
        sketch = QuantileSketch(0.01)
        with pytest.raises(StatsError):
            sketch.add(float("nan"))
        with pytest.raises(StatsError):
            sketch.add(float("inf"))
        with pytest.raises(StatsError):
            sketch.add(1.0, weight=0)
        with pytest.raises(StatsError):
            sketch.quantile(0.5)  # empty
        sketch.add(1.0)
        with pytest.raises(StatsError):
            sketch.quantile(1.5)
        other = QuantileSketch(0.02)
        with pytest.raises(StatsError):
            sketch.merge(other)

    def test_refuses_to_collapse_past_max_buckets(self):
        from repro.continuum import QuantileSketch
        from repro.errors import StatsError

        sketch = QuantileSketch(0.5, max_buckets=4)
        with pytest.raises(StatsError):
            for exponent in range(32):
                sketch.add(10.0 ** exponent)


class TestQuantileSketchProperties:
    """Merge is exact: merge-of-parts equals the single-stream state for
    ANY split and ANY grouping — the property distribution relies on."""

    values_strategy = __import__("hypothesis").strategies.lists(
        __import__("hypothesis").strategies.floats(
            allow_nan=False, allow_infinity=False,
            min_value=-1e12, max_value=1e12,
        ),
        max_size=120,
    )

    @staticmethod
    def _sketch_of(values):
        from repro.continuum import QuantileSketch

        sketch = QuantileSketch(0.02)
        for v in values:
            sketch.add(v)
        return sketch

    def test_merge_of_parts_equals_single_stream(self):
        from hypothesis import given
        from hypothesis import strategies as st

        @given(values=self.values_strategy, split=st.integers(0, 120))
        def check(values, split):
            split = min(split, len(values))
            merged = self._sketch_of(values[:split]).merge(
                self._sketch_of(values[split:])
            )
            assert merged == self._sketch_of(values)

        check()

    def test_merge_associative_and_commutative(self):
        from hypothesis import given

        @given(
            a=self.values_strategy,
            b=self.values_strategy,
            c=self.values_strategy,
        )
        def check(a, b, c):
            sa, sb, sc = map(self._sketch_of, (a, b, c))
            left = sa.copy().merge(sb).merge(sc)
            right = sa.copy().merge(sb.copy().merge(sc))
            flipped = sc.copy().merge(sb).merge(sa)
            assert left == right == flipped

        check()


class TestRunningStatMerge:
    def test_merge_matches_full_stream_moments(self):
        rng = np.random.default_rng(13)
        values = rng.lognormal(0.0, 1.0, size=700)
        merged = RunningStat()
        for chunk in np.array_split(values, 5):
            part = RunningStat()
            for v in chunk:
                part.add(float(v))
            merged.merge(part)
        assert merged.count == values.size
        assert merged.mean == pytest.approx(values.mean(), rel=1e-12)
        assert merged.variance == pytest.approx(values.var(ddof=1), rel=1e-10)
        assert merged.min == values.min()
        assert merged.max == values.max()

    def test_merge_with_empty_is_identity(self):
        stat = RunningStat()
        stat.add(3.0)
        stat.add(5.0)
        before = stat.to_dict()
        stat.merge(RunningStat())
        assert stat.to_dict() == before
        fresh = RunningStat()
        fresh.merge(stat)
        assert fresh.to_dict() == before

    def test_round_trip(self):
        stat = RunningStat()
        for v in (1.0, 2.0, 7.5):
            stat.add(v)
        clone = RunningStat.from_dict(stat.to_dict())
        assert clone.to_dict() == stat.to_dict()
        assert clone.variance == stat.variance


class TestCellAggregate:
    @staticmethod
    def _rows(seed, n):
        rng = np.random.default_rng(seed)
        return [
            (
                float(rng.lognormal(3.0, 0.4)),
                float(rng.lognormal(0.1, 0.05)),
                int(rng.integers(0, 5)),
                int(rng.integers(0, 3)),
                float(rng.exponential(2.0)),
            )
            for _ in range(n)
        ]

    def test_merge_of_parts_equals_single_stream(self):
        from repro.continuum import CellAggregate

        rows = self._rows(17, 400)
        whole = CellAggregate()
        for row in rows:
            whole.add(row)
        first, second = CellAggregate(), CellAggregate()
        for row in rows[:123]:
            first.add(row)
        for row in rows[123:]:
            second.add(row)
        first.merge(second)
        # Sketch states are exactly equal; moments agree to float noise.
        assert {
            name: st.sketch.to_dict() for name, st in first.stats.items()
        } == {name: st.sketch.to_dict() for name, st in whole.stats.items()}
        for name in whole.stats:
            assert first.stats[name].count == whole.stats[name].count
            assert first.stats[name].mean == pytest.approx(
                whole.stats[name].mean, rel=1e-12
            )

    def test_round_trip(self):
        from repro.continuum import CellAggregate

        aggregate = CellAggregate()
        for row in self._rows(19, 50):
            aggregate.add(row)
        clone = CellAggregate.from_dict(aggregate.to_dict())
        assert clone.to_dict() == aggregate.to_dict()
        assert clone.summaries() == aggregate.summaries()

    def test_malformed_payload_rejected(self):
        from repro.continuum import CellAggregate

        with pytest.raises(MonteCarloError):
            CellAggregate.from_dict({"stats": {}})


# -- adaptive sequential stopping ---------------------------------------------


class TestAdaptiveSpecValidation:
    def test_max_replications_requires_target_ci(self, workflow, continuum):
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      max_replications=50)

    def test_target_ci_must_be_positive_finite(self, workflow, continuum):
        for bad in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(MonteCarloError):
                SweepSpec(workflows=(workflow,), continuum=continuum,
                          target_ci=bad)

    def test_unknown_primary_metric(self, workflow, continuum):
        with pytest.raises(MonteCarloError):
            SweepSpec(workflows=(workflow,), continuum=continuum,
                      target_ci=0.05, primary_metric="vibes")

    def test_replication_plan_modes(self, workflow, continuum):
        fixed = SweepSpec(workflows=(workflow,), continuum=continuum,
                          replications=30)
        assert not fixed.adaptive
        assert fixed.replication_cap == 30
        assert fixed.replication_plan()["mode"] == "fixed"
        adaptive = SweepSpec(workflows=(workflow,), continuum=continuum,
                             replications=30, target_ci=0.05,
                             max_replications=90, chunk_size=10)
        assert adaptive.adaptive
        assert adaptive.replication_cap == 90
        plan = adaptive.replication_plan()
        assert plan["mode"] == "adaptive"
        assert plan["round_size"] == 10
        defaulted = SweepSpec(workflows=(workflow,), continuum=continuum,
                              replications=30, target_ci=0.05)
        assert defaulted.replication_cap == 30


class TestAdaptiveSweep:
    @pytest.fixture(scope="class")
    def spec(self, workflow, continuum):
        return SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft", "round_robin"), mtbfs=(None, 40.0),
            jitters=(0.1,), policies=("restart",),
            replications=80, seed=5, chunk_size=8,
            target_ci=0.03, max_replications=80,
        )

    def test_bit_identical_across_workers_and_steal_orders(self, spec):
        reference = run_sweep(spec, workers=0).to_dict()
        for workers in (1, 2, 4):
            assert run_sweep(spec, workers=workers).to_dict() == reference
        for steal_seed in (0, 1, 99):
            assert (
                run_sweep(spec, workers=2, steal_seed=steal_seed).to_dict()
                == reference
            )
            assert (
                run_sweep(spec, workers=0, steal_seed=steal_seed).to_dict()
                == reference
            )

    def test_every_stopped_cell_met_the_target(self, spec):
        import math

        result = run_sweep(spec)
        assert any(c.replications < spec.replication_cap for c in result.cells)
        for stats in result.cells:
            assert stats.replications <= spec.replication_cap
            assert stats.replications % spec.chunk_size == 0
            summary = stats.metrics[spec.primary_metric]
            if stats.replications < spec.replication_cap:
                half = 1.96 * summary.std / math.sqrt(summary.count)
                assert half <= spec.target_ci * abs(summary.mean) * 1.0001

    def test_savings_are_reported(self, spec):
        result = run_sweep(spec)
        assert result.n_replications_budget == spec.replication_cap * len(
            result.cells
        )
        assert 0 < result.n_replications_run < result.n_replications_budget
        assert result.n_replications_saved == (
            result.n_replications_budget - result.n_replications_run
        )

    def test_adaptive_prefix_matches_fixed_run(self, spec, workflow,
                                               continuum):
        """A cell that stopped at n replications aggregated exactly the
        first n draws of the fixed-mode stream (same entropy reuse)."""
        adaptive = {c.cell.cell_id: c for c in run_sweep(spec).cells}
        for cell_id, stats in adaptive.items():
            fixed = SweepSpec(
                workflows=(workflow,), continuum=continuum,
                schedulers=(stats.cell.scheduler,),
                mtbfs=(stats.cell.mtbf,), jitters=(stats.cell.jitter,),
                policies=(stats.cell.policy,),
                replications=stats.replications, seed=spec.seed,
            )
            fixed_stats = run_sweep(fixed).cells[0]
            assert fixed_stats.metrics == stats.metrics

    def test_adaptive_cache_round_trip(self, spec):
        cache = ArtifactCache()
        cold = run_sweep(spec, cache=cache)
        warm = run_sweep(spec, cache=cache)
        assert warm.n_replications_run == 0
        assert len(warm.cached) == len(spec.cells())
        assert warm.to_dict()["cells"] == cold.to_dict()["cells"]

    def test_round_size_is_part_of_adaptive_identity(self, spec):
        """Adaptive stop checks happen at round boundaries, so a different
        chunk_size is a different experiment — it must miss the cache."""
        cache = ArtifactCache()
        run_sweep(spec, cache=cache)
        rechunked = SweepSpec(
            workflows=spec.workflows, continuum=spec.continuum,
            schedulers=spec.schedulers, mtbfs=spec.mtbfs,
            jitters=spec.jitters, policies=spec.policies,
            replications=spec.replications, seed=spec.seed, chunk_size=16,
            target_ci=spec.target_ci, max_replications=spec.max_replications,
        )
        result = run_sweep(rechunked, cache=cache)
        assert result.n_replications_run > 0

    def test_impossible_target_runs_to_cap(self, workflow, continuum):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("round_robin",), mtbfs=(40.0,), jitters=(0.2,),
            policies=("restart",), replications=24, seed=5, chunk_size=8,
            target_ci=1e-9,
        )
        result = run_sweep(spec)
        assert result.cells[0].replications == 24
        assert result.n_replications_run == result.n_replications_budget

    def test_zero_variance_cell_stops_after_one_round(self, workflow,
                                                      continuum):
        spec = SweepSpec(
            workflows=(workflow,), continuum=continuum,
            schedulers=("heft",), mtbfs=(None,), jitters=(0.0,),
            policies=("restart",), replications=64, seed=5, chunk_size=8,
            target_ci=0.05,
        )
        result = run_sweep(spec)
        assert result.cells[0].replications == 8

    def test_telemetry_counts_savings(self, spec):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        result = run_sweep(spec, telemetry=telemetry)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["mc.replications"]["value"] == (
            result.n_replications_run
        )
        assert snapshot["mc.replications_saved"]["value"] == (
            result.n_replications_saved
        )
        assert snapshot["mc.rounds"]["value"] > 0
